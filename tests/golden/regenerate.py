"""The golden corpus: output bytes of the CLI and of the library, frozen.

``corpus()`` produces every file of the corpus as text, keyed by its path
relative to this directory:

- ``run_<name>/`` holds the trajectory.csv and manifest.txt of
  ``bcoslab run`` (4 seeds x 40 steps, sigma_every = 10) for each practical
  algorithm, for three conceptual configs (decoupled and coupled decay with
  Gaussian noise, decoupled decay with Student-t noise) and for a logistic
  problem;
- ``logistic_loss.csv`` is the mean loss curve of the logistic run, which
  its trajectory.csv does not hold (the problem has no target, so every
  distance column there reads nan);
- ``sweep/`` holds those of a 2 x 2 ``bcoslab sweep``;
- ``curve_blocks.csv`` is a library ``mean_trajectory`` curve with a 2+2
  partition, rendered by ``cli.curve_csv``;
- ``trace/<algorithm>_<partition>.csv`` is the ``trace_rows`` text of each
  practical algorithm at the singleton and 2+2 partitions;
- ``counterexamples/`` holds the stdout of ``bcoslab counterexamples`` and
  the CSV and manifest it writes.

tests/test_golden.py compares them byte for byte. ``VERIFY`` is the stdout
of ``bcoslab verify``; ``main`` writes it beside the corpus, and
tests/test_cli.py compares it inside the verify run it already makes, so
the suite runs the 1 s catalog once. Rewrite the files only when an output
is meant to change, and say why in CHANGES.md:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

import numpy as np

from bcoslab import cli
from bcoslab.analysis import mean_trajectory
from bcoslab.core import BlockPartition
from bcoslab.optim import ALGORITHMS, OptimizerConfig, trace_rows
from bcoslab.problems import NoisyQuadratic
from bcoslab.schedules import inverse_time

HERE = os.path.dirname(os.path.abspath(__file__))
VERIFY = "verify.txt"
PRACTICAL = [name for name in ALGORITHMS if name != "conceptual_bcos"]
PARTITIONS = {"singleton": BlockPartition.singleton(4), "2+2": BlockPartition.from_sizes([2, 2])}

BASE = """\
problem.dim = 4
problem.h = 1.0,2.0,0.5,1.5
problem.sigma = 1.0,0.5,2.0,1.0
problem.x_star = 0.5,-0.5,0.0,1.0
problem.x0 = 3.0
run.steps = 40
run.n_seeds = 4
run.base_seed = 11
run.sigma_every = 10
"""


def _run_configs() -> dict[str, tuple[str, str]]:
    """name -> (subcommand, config text). The practical runs alternate the
    bias correction and coupled/decoupled decay."""
    configs = {}
    for i, name in enumerate(PRACTICAL):
        configs[f"run_{name}"] = ("run", BASE + (
            f"optimizer.algorithm = {name}\n"
            "optimizer.weight_decay_lambda = 0.1\n"
            f"optimizer.decoupled = {'true' if i % 2 else 'false'}\n"
            f"optimizer.bias_correction = "
            f"{'zero_init_rescale' if i % 4 >= 2 else 'init_first_sample'}\n"
            "schedule.alpha = 0.05\n"))
    configs["run_conceptual_bcos"] = ("run", BASE + (
        "optimizer.algorithm = conceptual_bcos\n"
        "optimizer.weight_decay_lambda = 1.5\noptimizer.decoupled = true\n"
        "schedule.kind = inverse_time\nschedule.alpha = 0.5\n"))
    configs["run_conceptual_coupled"] = ("run", BASE + (
        "optimizer.algorithm = conceptual_bcos\n"
        "optimizer.weight_decay_lambda = 0.5\noptimizer.decoupled = false\n"
        "schedule.kind = inverse_time\nschedule.alpha = 0.5\n"))
    configs["run_conceptual_student_t"] = ("run", BASE + (
        "problem.noise = student_t\noptimizer.algorithm = conceptual_bcos\n"
        "optimizer.weight_decay_lambda = 1.5\noptimizer.decoupled = true\n"
        "schedule.kind = inverse_time\nschedule.alpha = 0.5\n"))
    configs["run_logistic"] = ("run", BASE + (
        "problem.kind = logistic\nproblem.n_samples = 200\nproblem.batch = 16\n"
        "optimizer.algorithm = bcos_c\nschedule.alpha = 0.05\n"))
    configs["sweep"] = ("sweep", BASE + (
        "optimizer.algorithm = bcos_c\n"
        "sweep.param = schedule.alpha\nsweep.values = 0.02,0.1\n"
        "sweep.param2 = optimizer.beta1\nsweep.values2 = 0.5,0.9\n"))
    return configs


def _stdout(argv: list[str]) -> str:
    """The stdout of ``bcoslab argv``, which must exit 0."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        if cli.main(argv) != 0:
            raise RuntimeError(f"bcoslab {argv[0]} failed")
    return buffer.getvalue()


def _read_dir(out: str, prefix: str, files: dict[str, str]) -> None:
    for file in sorted(os.listdir(out)):
        with open(os.path.join(out, file), encoding="utf-8", newline="") as fh:
            files[f"{prefix}/{file}"] = fh.read()


def _cli_files() -> dict[str, str]:
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "counterexamples")
        files["counterexamples/stdout.txt"] = _stdout(["counterexamples", "--out", out])
        _read_dir(out, "counterexamples", files)
        for name, (command, text) in _run_configs().items():
            path = os.path.join(tmp, f"{name}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out = os.path.join(tmp, name)
            if cli.main([command, "--config", path, "--out", out]) != 0:
                raise RuntimeError(f"bcoslab {command} failed on {name}")
            _read_dir(out, name, files)
    return files


def _library_files() -> dict[str, str]:
    problem = NoisyQuadratic([1.0, 2.0, 0.5, 1.5], [1.0, 0.5, 2.0, 1.0], [0.5, -0.5, 0.0, 1.0])
    curve = mean_trajectory(problem, OptimizerConfig("bcos_c"), inverse_time(0.2), 40, 4,
                            base_seed=5, x0=np.full(4, 2.0),
                            partition=PARTITIONS["2+2"])
    files = {"curve_blocks.csv": cli.curve_csv(curve)}
    logistic = cli.parse_config(_run_configs()["run_logistic"][1])
    problem, opt, schedule, x0 = cli._build(logistic)
    curve = mean_trajectory(problem, opt, schedule, logistic.steps, logistic.n_seeds,
                            logistic.base_seed, x0=x0)
    files["logistic_loss.csv"] = "t,mean_loss\n" + "".join(
        f"{t},{loss!r}\n" for t, loss in zip(curve.t.tolist(), curve.mean_loss.tolist()))
    gradients = np.random.default_rng(7).standard_normal((12, 4))
    alphas = [0.1 / np.sqrt(1.0 + t) for t in range(12)]
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    for label, partition in PARTITIONS.items():
        for i, name in enumerate(PRACTICAL):
            config = OptimizerConfig(
                name, weight_decay_lambda=0.05, decoupled=bool(i % 2),
                bias_correction="zero_init_rescale" if i % 4 >= 2 else "init_first_sample")
            rows = trace_rows(config, x0, gradients, alphas, partition)
            files[f"trace/{name}_{label}.csv"] = "\n".join(rows) + "\n"
    return files


def corpus() -> dict[str, str]:
    """Every corpus file as text, keyed by its path relative to this directory."""
    return {**_cli_files(), **_library_files()}


def main() -> None:
    for name, text in {**corpus(), VERIFY: _stdout(["verify"])}.items():
        path = os.path.join(HERE, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
