"""Reproducible experiment runner.

Subcommands: run (trajectory ensembles to CSV), sweep (grid over one or two
hyperparameters), verify (the numerical verifier suite), counterexamples.
Configs are flat key = value text files, read as a dict from config key to
value; KEY_TABLE gives each key its default, parser and formatter. Every run
writes a manifest with a config hash and content hashes of its outputs, and
output bytes are a pure function of (config, base_seed).

Exit codes: 0 success, 1 a failed check (verify, counterexamples), 2 a
config or usage error, 3 a run that cannot finish (a divergence in run, or
non-finite parameters in run or sweep).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import os
import sys

import numpy as np

from . import analysis, problems
from .analysis import DivergenceError, MeanCurve
from .core import NonFiniteError
from .optim import OptimizerConfig
from .problems import LogisticSmokeProblem, NoisyQuadratic, ProblemError
from .schedules import StepSchedule


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        super().__init__(f"config field {key!r}: {message}")
        self.key = key


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _int_at_least(low: int):
    """The parser of an integer no smaller than low."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value

    return parse


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw.strip()}")
    return value


def _parse_floats(raw: str) -> tuple:
    return tuple(_parse_float(tok) for tok in raw.split(",") if tok.strip() != "")


def _fmt_floats(vals: tuple) -> str:
    return ",".join(repr(float(v)) for v in vals)


def _fmt_bool(value: bool) -> str:
    return str(bool(value)).lower()


# key -> (default, parser, formatter). The optimizer.* and schedule.*
# defaults are those of their dataclasses, which declare every field once;
# the table sets only the three they lack.
KEY_TABLE = {
    "problem.kind": ("quadratic", str.strip, str),
    "problem.dim": (4, _int_at_least(1), str),
    "problem.h": ((1.0,), _parse_floats, _fmt_floats),
    "problem.sigma": ((1.0,), _parse_floats, _fmt_floats),
    "problem.x_star": ((0.0,), _parse_floats, _fmt_floats),
    "problem.x0": ((3.0,), _parse_floats, _fmt_floats),
    "problem.noise": ("gaussian", str.strip, str),
    "problem.n_samples": (1000, _int_at_least(1), str),
    "problem.batch": (32, _int_at_least(1), str),
    "problem.data_seed": (2024, _int_at_least(0), str),
    "optimizer.algorithm": ("bcos_c", str.strip, str),
    "optimizer.beta1": (OptimizerConfig.beta1, _parse_float, repr),
    "optimizer.beta2": (OptimizerConfig.beta2, _parse_float, repr),
    "optimizer.epsilon": (OptimizerConfig.epsilon, _parse_float, repr),
    "optimizer.epsilon_placement": (OptimizerConfig.epsilon_placement, str.strip, str),
    "optimizer.weight_decay_lambda": (OptimizerConfig.weight_decay_lambda, _parse_float, repr),
    "optimizer.decoupled": (OptimizerConfig.decoupled, _parse_bool, _fmt_bool),
    "optimizer.bias_correction": (OptimizerConfig.bias_correction, str.strip, str),
    "optimizer.conditional_full": (OptimizerConfig.conditional_full, _parse_bool, _fmt_bool),
    "schedule.kind": ("constant", str.strip, str),
    "schedule.alpha": (0.1, _parse_float, repr),
    "schedule.p": (StepSchedule.p, _parse_float, repr),
    "schedule.warmup_steps": (StepSchedule.warmup_steps, _int_at_least(0), str),
    "schedule.total_steps": (StepSchedule.total_steps, _int_at_least(0), str),
    "schedule.alpha_min_ratio": (StepSchedule.alpha_min_ratio, _parse_float, repr),
    "run.steps": (100, _int_at_least(0), str),
    "run.n_seeds": (4, _int_at_least(2), str),
    "run.base_seed": (0, _int_at_least(0), str),
    "run.output_dir": ("out", str.strip, str),
    # cadence for sampling estimator diagnostics along the first seed
    # (0 disables; fills the CSV sigma_t column at those steps)
    "run.sigma_every": (0, _int_at_least(0), str),
    "sweep.param": ("", str.strip, str),
    "sweep.values": ((), _parse_floats, _fmt_floats),
    "sweep.param2": ("", str.strip, str),
    "sweep.values2": ((), _parse_floats, _fmt_floats),
}


def default_config() -> dict:
    """Every key of KEY_TABLE with its default: the config of empty text."""
    return {key: default for key, (default, _, _) in KEY_TABLE.items()}


def parse_config(text: str) -> dict:
    """Parse the flat key = value format into {key: value} over every key of
    KEY_TABLE, a key the text leaves out at its default; unknown keys and
    type errors raise ConfigError naming the offending field."""
    cfg = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KEY_TABLE:
            raise ConfigError(key, "unknown key")
        _assign(cfg, key, value)
    return cfg


def _assign(cfg: dict, key: str, raw: str) -> None:
    """Parse raw text for the known key into cfg; a bad value is a
    ConfigError naming the key."""
    _, parser, _ = KEY_TABLE[key]
    try:
        cfg[key] = parser(raw.strip())
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


def config_text(cfg: dict) -> str:
    """Canonical serialization; parse(config_text(cfg)) == cfg."""
    return "".join(f"{key} = {fmt(cfg[key])}\n" for key, (_, _, fmt) in sorted(KEY_TABLE.items()))


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _vector(cfg: dict, key: str) -> np.ndarray:
    """The list under key as a (problem.dim,) array; one value broadcasts."""
    values, dim = cfg[key], cfg["problem.dim"]
    if len(values) not in (1, dim):
        raise ConfigError(key, f"expected 1 or {dim} values, got {len(values)}")
    if len(values) == 1:
        return np.full(dim, float(values[0]))
    return np.asarray(values, dtype=np.float64)


def build_problem(cfg: dict):
    kind = cfg["problem.kind"]
    try:
        if kind == "quadratic":
            return NoisyQuadratic(
                h=_vector(cfg, "problem.h"),
                sigma=_vector(cfg, "problem.sigma"),
                x_star=_vector(cfg, "problem.x_star"),
                noise=cfg["problem.noise"],
            )
        if kind == "logistic":
            return LogisticSmokeProblem(
                n_features=cfg["problem.dim"],
                n_samples=cfg["problem.n_samples"],
                batch=cfg["problem.batch"],
                data_seed=cfg["problem.data_seed"],
            )
    except ProblemError as exc:
        raise ConfigError("problem", str(exc)) from exc
    raise ConfigError("problem.kind", f"unknown problem kind {kind!r}")


def _group(cfg: dict, group: str) -> dict:
    """The values of one key group ("optimizer" or "schedule"), each named
    by the part of its key after the dot: the keyword arguments of the
    group's dataclass."""
    prefix = group + "."
    return {key[len(prefix):]: value for key, value in cfg.items() if key.startswith(prefix)}


def build_optimizer(cfg: dict) -> OptimizerConfig:
    if cfg["optimizer.algorithm"] == "conceptual_bcos" and cfg["problem.kind"] == "logistic":
        raise ConfigError("optimizer.algorithm",
                          "conceptual_bcos needs exact moments, which problem.kind = "
                          "logistic does not have")
    try:
        return OptimizerConfig(**_group(cfg, "optimizer"))
    except ValueError as exc:
        raise ConfigError("optimizer", str(exc)) from exc


def build_schedule(cfg: dict) -> StepSchedule:
    try:
        return StepSchedule(**_group(cfg, "schedule"))
    except ValueError as exc:
        raise ConfigError("schedule", str(exc)) from exc


def _check_schedule_safety(opt: OptimizerConfig, schedule: StepSchedule) -> None:
    """Hard safety condition only: with decoupled decay the peak stepsize
    (every kind peaks at schedule.alpha) must keep alpha*lambda <= 1, and < 1
    for the practical methods, whose step refuses a decay factor of 0.
    Coupled decay is folded into the gradient and applies no
    (1 - alpha*lambda) factor, so its decay_lambda is 0. The conditions of
    the rate theorems (analysis.rate_preconditions) do not block a run."""
    peak = schedule.alpha * opt.decay_lambda
    if peak > 1.0:
        raise ConfigError(
            "schedule.alpha",
            f"peak alpha*lambda = {peak} exceeds 1 with decoupled weight decay",
        )
    if peak == 1.0 and opt.algorithm != "conceptual_bcos":
        raise ConfigError(
            "schedule.alpha",
            f"peak alpha*lambda = {peak} reaches 1 with decoupled weight decay; "
            f"{opt.algorithm} steps need alpha*lambda < 1",
        )


def _build(cfg: dict) -> tuple:
    """(problem, optimizer, schedule, x0) of a run, past the decay check, so
    that a bad config fails before any ensemble runs."""
    problem = build_problem(cfg)
    opt = build_optimizer(cfg)
    schedule = build_schedule(cfg)
    _check_schedule_safety(opt, schedule)
    x0 = np.zeros(problem.dim) if cfg["problem.kind"] == "logistic" else _vector(cfg, "problem.x0")
    return problem, opt, schedule, x0


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x: float) -> str:
    return repr(float(x))


# rows per piece of curve_csv, and characters per slice that write_outputs
# encodes, hashes and writes: neither holds a string per row of the run nor
# a second whole copy of a text
_CSV_ROWS = 2048
_WRITE_SLICE = 2**18


def curve_csv(curve: MeanCurve) -> str:
    floats = (curve.mean_dist_sq, curve.se_dist_sq, curve.alpha, curve.aiming_min, curve.sigma)
    pieces = ["t,mean_dist_sq,se_dist_sq,alpha_t,aiming_min,sigma_t"]
    for a in range(0, len(curve.t), _CSV_ROWS):
        b = a + _CSV_ROWS
        columns = [map(str, curve.t[a:b].tolist())] + [map(repr, c[a:b].tolist()) for c in floats]
        pieces.append("\n".join(map(",".join, zip(*columns))))
    # the empty last piece ends the text with a newline
    pieces.append("")
    return "\n".join(pieces)


def write_outputs(out_dir: str, cfg: dict, named_texts: dict[str, str]) -> None:
    """Write each text and manifest.txt into out_dir as UTF-8. A text is
    encoded, hashed and written a slice at a time, so the bytes written are
    the bytes the manifest hashes and no whole encoded copy is held."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = [
        f"config_sha256 = {hashlib.sha256(config_text(cfg).encode()).hexdigest()}",
        f"base_seed = {cfg['run.base_seed']}",
    ]
    for name in sorted(named_texts):
        text = named_texts[name]
        digest, size = hashlib.sha256(), 0
        with open(os.path.join(out_dir, name), "wb") as fh:
            for a in range(0, len(text), _WRITE_SLICE):
                data = text[a : a + _WRITE_SLICE].encode()
                digest.update(data)
                size += len(data)
                fh.write(data)
        manifest.append(f"file {name} sha256={digest.hexdigest()} bytes={size}")
    with open(os.path.join(out_dir, "manifest.txt"), "wb") as fh:
        fh.write(("\n".join(manifest) + "\n").encode())


# ---------------------------------------------------------------------------
# run


def cmd_run(cfg: dict, out_dir: str | None = None) -> int:
    problem, opt, schedule, x0 = _build(cfg)
    out = out_dir or cfg["run.output_dir"]
    steps = cfg["run.steps"]
    try:
        curve = analysis.mean_trajectory(
            problem, opt, schedule, steps, cfg["run.n_seeds"], cfg["run.base_seed"],
            x0=x0, sigma_every=cfg["run.sigma_every"],
        )
    except DivergenceError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 3
    write_outputs(out, cfg, {"trajectory.csv": curve_csv(curve)})
    print(f"wrote {out}/trajectory.csv ({steps + 1} rows) and manifest.txt")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _set_config_key(cfg: dict, key: str, value: float, axis: str) -> dict:
    """cfg with key set to a value of the sweep axis whose fields end in axis
    ("" for sweep.param/values, "2" for sweep.param2/values2); a fractional
    value for an integer key is an error, not a truncation."""
    if key not in KEY_TABLE:
        raise ConfigError(f"sweep.param{axis}", f"unknown config key {key!r}")
    current = cfg[key]
    if isinstance(current, (bool, str, tuple)):
        raise ConfigError(f"sweep.param{axis}", f"{key!r} is not a numeric scalar key")
    if isinstance(current, int) and not float(value).is_integer():
        raise ConfigError(f"sweep.values{axis}", f"{key!r} takes whole numbers, got {value!r}")
    point = dict(cfg)
    _assign(point, key, str(int(value)) if isinstance(current, int) else repr(float(value)))
    return point


def cmd_sweep(cfg: dict, out_dir: str | None = None) -> int:
    # (key, values, field suffix) of each axis; the second is there when
    # either of its fields is set, and each needs both
    axes = [(cfg["sweep.param"], cfg["sweep.values"], "")]
    if cfg["sweep.param2"] or cfg["sweep.values2"]:
        axes.append((cfg["sweep.param2"], cfg["sweep.values2"], "2"))
    for key, values, axis in axes:
        for field, value in ((f"sweep.param{axis}", key), (f"sweep.values{axis}", values)):
            if not value:
                raise ConfigError(field, f"sweep needs sweep.param{axis} and sweep.values{axis}")
    if len(axes) == 2 and cfg["sweep.param2"] == cfg["sweep.param"]:
        raise ConfigError("sweep.param2",
                          f"must differ from sweep.param, both are {cfg['sweep.param']!r}")
    out = out_dir or cfg["run.output_dir"]
    header = [key for key, _, _ in axes] + ["final_dist_sq", "final_loss", "slope", "diverged"]
    rows = [",".join(header)]
    # every grid point, in row-major order, is built and checked before the
    # first one runs
    points = []
    for grid in itertools.product(*(values for _, values, _ in axes)):
        point = cfg
        for (key, _, axis), value in zip(axes, grid):
            point = _set_config_key(point, key, value, axis)
        points.append((grid, point, _build(point)))
    for grid, point, (problem, opt, schedule, x0) in points:
        diverged = False
        steps = point["run.steps"]
        try:
            curve = analysis.mean_trajectory(problem, opt, schedule, steps, point["run.n_seeds"],
                                             point["run.base_seed"], x0=x0)
            final_d = float(curve.mean_dist_sq[-1])
            final_l = float(curve.mean_loss[-1])
            try:
                fit = analysis.fit_rate(curve, (max(1, steps // 100), steps))
                slope = fit.slope
            except analysis.AnalysisError:
                slope = float("nan")
        except DivergenceError:
            diverged = True
            final_d = float("inf")
            final_l = float("inf")
            slope = float("nan")
        cells = [*map(_fmt, grid), _fmt(final_d), _fmt(final_l), _fmt(slope),
                 str(int(diverged))]
        rows.append(",".join(cells))
    write_outputs(out, cfg, {"sweep.csv": "\n".join(rows) + "\n"})
    print(f"wrote {out}/sweep.csv ({len(rows) - 1} grid points)")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: dict) -> int:
    """Print the checks of analysis.verify_sections, each section under its
    name, once all have run; 1 if any check fails, else 0. cfg is not read."""
    sections = analysis.verify_sections()
    print("name,observed,bound,tolerance,status")
    for name, checks in sections:
        print(f"# {name}", *(check.format_line() for check in checks), sep="\n")
    return 0 if all(check.passed for _, checks in sections for check in checks) else 1


def cmd_counterexamples(cfg: dict, out_dir: str | None = None) -> int:
    """Print what both reports measured, each followed by the check lines
    verify prints for it (and write the log grid's CSV when out_dir is set);
    1 if any of those checks fails, each named on stderr, else 0."""
    log_report = problems.counterexample_log_aiming()
    quad = problems.counterexample_quadratic_not_aiming()
    log_checks = analysis.counterexample_log_checks(log_report)
    quad_checks = analysis.counterexample_quadratic_checks(quad)
    print(f"# counterexample: {log_report.name}\n{log_report.notes}\n"
          f"grid points: {len(log_report.rows)}")
    print(*(check.format_line() for check in log_checks), sep="\n")
    print(f"# counterexample: {quad['name']}\neigenvalues: {quad['eigenvalues'].tolist()}\n"
          f"aiming value at {quad['x_eval'].tolist()}: {quad['aiming_value']!r}")
    print(*(check.format_line() for check in quad_checks), sep="\n")
    if out_dir:
        write_outputs(out_dir, cfg, {"counterexample_log.csv": "\n".join(log_report.csv_rows()) + "\n"})
    failed = [check.name for check in log_checks + quad_checks if not check.passed]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bcoslab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the flags it reads: verify writes nothing,
    # and only the ensembles read a seed count
    for name in ("run", "sweep", "verify", "counterexamples"):
        p = sub.add_parser(name)
        ensemble = name in ("run", "sweep")
        p.add_argument("--config", required=ensemble, help="config file path")
        if ensemble:
            p.add_argument("--seeds", help="override run.n_seeds")
        if name != "verify":
            p.add_argument("--out", help="write counterexample_log.csv and its manifest here"
                           if name == "counterexamples" else "override run.output_dir")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        if getattr(args, "seeds", None) is not None:
            _assign(cfg, "run.n_seeds", args.seeds)
        out_dir = getattr(args, "out", None) or os.environ.get("OUTPUT_DIR") or None
        if args.command == "run":
            return cmd_run(cfg, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_counterexamples(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
