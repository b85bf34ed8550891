"""The names and parameters the benchmark scripts under bench/ read from the
package. The tracer counts work through the parameters named here and the
text ``curve_csv`` returns; the child process sets a run up through the cli
functions named here. A rename breaks ``bench/run.py --trace 1``."""

import inspect

import pytest

from bcoslab import analysis, cli, optim, problems, schedules
from bcoslab.optim import OptimizerConfig
from bcoslab.problems import NoisyQuadratic
from bcoslab.schedules import constant


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
    # bench/run.py LAYERS reads the spans of these; a moved one reads 0
    (problems, "make_rng"),
    (schedules, "value_at"),
    (analysis, "run_trajectory"),
    (analysis, "mean_trajectory"),
    (analysis, "verify_chung_recursions"),
    (analysis, "verify_ratio_expansion"),
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
    curve = analysis.mean_trajectory(problem, opt, schedule, cfg["run.steps"],
                                     cfg["run.n_seeds"])
    text = cli.curve_csv(curve)
    assert isinstance(text, str) and len(text.splitlines()) == cfg["run.steps"] + 2


def count_calls(monkeypatch, module, name) -> list:
    """Replace module.name with a wrapper that logs each call; returns the log."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("algorithm, steps_per_seed_step", [
    ("bcos_c", 1),
    ("conceptual_bcos", 0),
])
def test_ensemble_step_calls(monkeypatch, algorithm, steps_per_seed_step):
    """The traced hook of bench/run.py: a practical ensemble calls
    ``optim.step`` once per seed and step (8000 on run_bcos_c), the
    conceptual one never."""
    steps = count_calls(monkeypatch, analysis, "step")
    S, T = 3, 20
    problem = NoisyQuadratic([1.0, 2.0, 0.5, 1.5], 1.0, 0.0)
    config = OptimizerConfig(algorithm, weight_decay_lambda=0.1, decoupled=True)
    analysis.mean_trajectory(problem, config, constant(0.01), T, S, sigma_every=10)
    assert len(steps) == steps_per_seed_step * S * T


def test_default_verify_calls(monkeypatch, capsys):
    """The traced hook of bench/run.py on verify_default: five estimator
    checks and no optimizer step. Each check draws its gradients once and
    takes its standard error from the estimates it drew, so verify makes
    five gradient draws."""
    steps = count_calls(monkeypatch, analysis, "step")
    stats = count_calls(monkeypatch, analysis, "estimator_stats")
    draws = count_calls(monkeypatch, NoisyQuadratic, "sample_gradients")
    assert cli.cmd_verify(cli.default_config()) == 0
    assert (len(stats), len(steps)) == (5, 0)
    assert len(draws) == 5
