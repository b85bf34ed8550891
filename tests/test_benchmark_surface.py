"""The names and parameters the benchmark scripts under bench/ read from the
package. The tracer counts work through the parameters named here and the
text ``curve_csv`` returns; the child process sets a run up through the cli
functions named here. A rename breaks ``bench/run.py --trace 1``."""

import inspect

import pytest

from bcoslab import analysis, cli, optim
from bcoslab.optim import OptimizerConfig
from bcoslab.problems import NoisyQuadratic


@pytest.mark.parametrize("fn, parameter", [
    (analysis.estimator_stats, "n_mc"),
    (NoisyQuadratic.sample_gradients, "size"),
    (cli.write_outputs, "named_texts"),
])
def test_counted_parameters(fn, parameter):
    assert parameter in inspect.signature(fn).parameters


@pytest.mark.parametrize("module, name", [
    # the traced hook checks count calls of these two
    (optim, "step"),
    (analysis, "estimator_stats"),
    (cli, "curve_csv"),
    (cli, "write_outputs"),
    (cli, "load_config"),
    (cli, "build_problem"),
    (cli, "build_optimizer"),
    (cli, "build_schedule"),
    (cli, "main"),
])
def test_traced_functions_are_public(module, name):
    """The tracer wraps public functions defined in their own module."""
    fn = getattr(module, name)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_child_setup_and_curve_text(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("problem.dim = 2\nrun.steps = 3\nrun.n_seeds = 2\n")
    cfg = cli.load_config(str(path))
    problem = cli.build_problem(cfg)
    opt = cli.build_optimizer(cfg)
    schedule = cli.build_schedule(cfg)
    assert isinstance(opt, OptimizerConfig)
    curve = analysis.mean_trajectory(problem, opt, schedule, cfg.steps, cfg.n_seeds)
    text = cli.curve_csv(curve)
    assert isinstance(text, str) and len(text.splitlines()) == cfg.steps + 2
