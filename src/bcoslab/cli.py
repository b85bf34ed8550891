"""Reproducible experiment runner.

Subcommands: run (trajectory ensembles to CSV), sweep (grid over one or two
hyperparameters), verify (the numerical verifier suite), counterexamples.
Configs are flat key = value text files; every run writes a manifest with a
config hash and content hashes of its outputs, and output bytes are a pure
function of (config, base_seed).

Exit codes: 0 success, 1 verifier failure, divergence or a numeric failure
(non-finite parameters), 2 config error.
"""

from __future__ import annotations

import argparse
import contextvars
import hashlib
import itertools
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, problems
from .analysis import (CheckResult, DivergenceError, MeanCurve, mc_mean_se,
                       mc_variance_se)
from .core import NonFiniteError
from .optim import OptimizerConfig, OptimizerState
from .problems import LogisticSmokeProblem, NoisyQuadratic, ProblemError
from .schedules import StepSchedule


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        super().__init__(f"config field {key!r}: {message}")
        self.key = key


@dataclass
class ExperimentConfig:
    problem_kind: str = "quadratic"
    dim: int = 4
    h: tuple = (1.0,)
    sigma: tuple = (1.0,)
    x_star: tuple = (0.0,)
    x0: tuple = (3.0,)
    noise: str = "gaussian"
    n_samples: int = 1000
    batch: int = 32
    data_seed: int = 2024
    # the optimizer.* and schedule.* defaults are those of their dataclasses,
    # which declare every field once; the CLI sets only the three they lack
    algorithm: str = "bcos_c"
    beta1: float = OptimizerConfig.beta1
    beta2: float = OptimizerConfig.beta2
    epsilon: float = OptimizerConfig.epsilon
    epsilon_placement: str = OptimizerConfig.epsilon_placement
    weight_decay_lambda: float = OptimizerConfig.weight_decay_lambda
    decoupled: bool = OptimizerConfig.decoupled
    bias_correction: str = OptimizerConfig.bias_correction
    conditional_full: bool = OptimizerConfig.conditional_full
    schedule_kind: str = "constant"
    alpha: float = 0.1
    p: float = StepSchedule.p
    warmup_steps: int = StepSchedule.warmup_steps
    total_steps: int = StepSchedule.total_steps
    alpha_min_ratio: float = StepSchedule.alpha_min_ratio
    steps: int = 100
    n_seeds: int = 4
    base_seed: int = 0
    output_dir: str = "out"
    # cadence for sampling estimator diagnostics along the first seed
    # (0 disables; fills the CSV sigma_t column at those steps)
    sigma_every: int = 0
    sweep_param: str = ""
    sweep_values: tuple = ()
    sweep_param2: str = ""
    sweep_values2: tuple = ()


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


# key -> (attribute, parser, formatter)
KEY_TABLE = {
    "problem.kind": ("problem_kind", str.strip, str),
    "problem.dim": ("dim", _int_at_least(1), str),
    "problem.h": ("h", _parse_floats, _fmt_floats),
    "problem.sigma": ("sigma", _parse_floats, _fmt_floats),
    "problem.x_star": ("x_star", _parse_floats, _fmt_floats),
    "problem.x0": ("x0", _parse_floats, _fmt_floats),
    "problem.noise": ("noise", str.strip, str),
    "problem.n_samples": ("n_samples", _int_at_least(1), str),
    "problem.batch": ("batch", _int_at_least(1), str),
    "problem.data_seed": ("data_seed", _int_at_least(0), str),
    "optimizer.algorithm": ("algorithm", str.strip, str),
    "optimizer.beta1": ("beta1", _parse_float, repr),
    "optimizer.beta2": ("beta2", _parse_float, repr),
    "optimizer.epsilon": ("epsilon", _parse_float, repr),
    "optimizer.epsilon_placement": ("epsilon_placement", str.strip, str),
    "optimizer.weight_decay_lambda": ("weight_decay_lambda", _parse_float, repr),
    "optimizer.decoupled": ("decoupled", _parse_bool, lambda b: str(bool(b)).lower()),
    "optimizer.bias_correction": ("bias_correction", str.strip, str),
    "optimizer.conditional_full": ("conditional_full", _parse_bool, lambda b: str(bool(b)).lower()),
    "schedule.kind": ("schedule_kind", str.strip, str),
    "schedule.alpha": ("alpha", _parse_float, repr),
    "schedule.p": ("p", _parse_float, repr),
    "schedule.warmup_steps": ("warmup_steps", _int_at_least(0), str),
    "schedule.total_steps": ("total_steps", _int_at_least(0), str),
    "schedule.alpha_min_ratio": ("alpha_min_ratio", _parse_float, repr),
    "run.steps": ("steps", _int_at_least(0), str),
    "run.n_seeds": ("n_seeds", _int_at_least(2), str),
    "run.base_seed": ("base_seed", _int_at_least(0), str),
    "run.output_dir": ("output_dir", str.strip, str),
    "run.sigma_every": ("sigma_every", _int_at_least(0), str),
    "sweep.param": ("sweep_param", str.strip, str),
    "sweep.values": ("sweep_values", _parse_floats, _fmt_floats),
    "sweep.param2": ("sweep_param2", str.strip, str),
    "sweep.values2": ("sweep_values2", _parse_floats, _fmt_floats),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value format; unknown keys and type errors raise
    ConfigError naming the offending field."""
    cfg = ExperimentConfig()
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


def _assign(cfg: ExperimentConfig, key: str, raw: str) -> None:
    """Parse raw text for the known key into cfg; a bad value is a
    ConfigError naming the key."""
    attr, parser, _ = KEY_TABLE[key]
    try:
        setattr(cfg, attr, parser(raw.strip()))
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization; parse(config_text(cfg)) == cfg."""
    lines = []
    for key in sorted(KEY_TABLE):
        attr, _, fmt = KEY_TABLE[key]
        lines.append(f"{key} = {fmt(getattr(cfg, attr))}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _broadcast(values: tuple, dim: int, key: str) -> np.ndarray:
    if len(values) not in (1, dim):
        raise ConfigError(key, f"expected 1 or {dim} values, got {len(values)}")
    if len(values) == 1:
        return np.full(dim, float(values[0]))
    return np.asarray(values, dtype=np.float64)


def build_problem(cfg: ExperimentConfig):
    try:
        if cfg.problem_kind == "quadratic":
            return NoisyQuadratic(
                h=_broadcast(cfg.h, cfg.dim, "problem.h"),
                sigma=_broadcast(cfg.sigma, cfg.dim, "problem.sigma"),
                x_star=_broadcast(cfg.x_star, cfg.dim, "problem.x_star"),
                noise=cfg.noise,
            )
        if cfg.problem_kind == "logistic":
            return LogisticSmokeProblem(
                n_features=cfg.dim,
                n_samples=cfg.n_samples,
                batch=cfg.batch,
                data_seed=cfg.data_seed,
            )
    except ProblemError as exc:
        raise ConfigError("problem", str(exc)) from exc
    raise ConfigError("problem.kind", f"unknown problem kind {cfg.problem_kind!r}")


def _group(cfg: ExperimentConfig, group: str) -> dict:
    """The values of one key group of KEY_TABLE ("optimizer" or "schedule"),
    each named by the part of its key after the dot: the keyword arguments
    of the group's dataclass."""
    prefix = group + "."
    return {key[len(prefix):]: getattr(cfg, attr)
            for key, (attr, _, _) in KEY_TABLE.items() if key.startswith(prefix)}


def build_optimizer(cfg: ExperimentConfig) -> OptimizerConfig:
    if cfg.algorithm == "conceptual_bcos" and cfg.problem_kind == "logistic":
        raise ConfigError("optimizer.algorithm",
                          "conceptual_bcos needs exact moments, which problem.kind = "
                          "logistic does not have")
    try:
        return OptimizerConfig(**_group(cfg, "optimizer"))
    except ValueError as exc:
        raise ConfigError("optimizer", str(exc)) from exc


def build_schedule(cfg: ExperimentConfig) -> StepSchedule:
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


def _x0(cfg: ExperimentConfig, problem) -> np.ndarray:
    if cfg.problem_kind == "logistic":
        return np.zeros(problem.dim)
    return _broadcast(cfg.x0, cfg.dim, "problem.x0")


def _build(cfg: ExperimentConfig) -> tuple:
    """(problem, optimizer, schedule, x0) of a run, past the decay check, so
    that a bad config fails before any ensemble runs."""
    problem = build_problem(cfg)
    opt = build_optimizer(cfg)
    schedule = build_schedule(cfg)
    _check_schedule_safety(opt, schedule)
    return problem, opt, schedule, _x0(cfg, problem)


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x: float) -> str:
    return repr(float(x))


def curve_csv(curve: MeanCurve) -> str:
    floats = (curve.mean_dist_sq, curve.se_dist_sq, curve.alpha, curve.aiming_min, curve.sigma)
    columns = [map(str, curve.t.tolist())] + [map(repr, c.tolist()) for c in floats]
    rows = map(",".join, zip(*columns))
    return "\n".join(["t,mean_dist_sq,se_dist_sq,alpha_t,aiming_min,sigma_t", *rows]) + "\n"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_outputs(out_dir: str, cfg: ExperimentConfig, named_texts: dict[str, str]) -> None:
    """Write each text and manifest.txt into out_dir as UTF-8, each encoded
    once: the bytes written are the bytes the manifest hashes."""
    os.makedirs(out_dir, exist_ok=True)
    files = {name: named_texts[name].encode() for name in sorted(named_texts)}
    manifest = [
        f"config_sha256 = {_sha256(config_text(cfg).encode())}",
        f"base_seed = {cfg.base_seed}",
        *(f"file {name} sha256={_sha256(data)} bytes={len(data)}"
          for name, data in files.items()),
    ]
    files["manifest.txt"] = ("\n".join(manifest) + "\n").encode()
    for name, data in files.items():
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)


# ---------------------------------------------------------------------------
# run


def cmd_run(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    problem, opt, schedule, x0 = _build(cfg)
    out = out_dir or cfg.output_dir
    try:
        curve = analysis.mean_trajectory(
            problem, opt, schedule, cfg.steps, cfg.n_seeds, cfg.base_seed,
            x0=x0, sigma_every=cfg.sigma_every,
        )
    except DivergenceError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1
    write_outputs(out, cfg, {"trajectory.csv": curve_csv(curve)})
    print(f"wrote {out}/trajectory.csv ({cfg.steps + 1} rows) and manifest.txt")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _set_config_key(cfg: ExperimentConfig, key: str, value: float, axis: str) -> ExperimentConfig:
    """cfg with key set to a value of the sweep axis whose fields end in axis
    ("" for sweep.param/values, "2" for sweep.param2/values2); a fractional
    value for an integer key is an error, not a truncation."""
    if key not in KEY_TABLE:
        raise ConfigError(f"sweep.param{axis}", f"unknown config key {key!r}")
    current = getattr(cfg, KEY_TABLE[key][0])
    if isinstance(current, (bool, str, tuple)):
        raise ConfigError(f"sweep.param{axis}", f"{key!r} is not a numeric scalar key")
    if isinstance(current, int) and not float(value).is_integer():
        raise ConfigError(f"sweep.values{axis}", f"{key!r} takes whole numbers, got {value!r}")
    point = replace(cfg)
    _assign(point, key, str(int(value)) if isinstance(current, int) else repr(float(value)))
    return point


def cmd_sweep(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    # (key, values, field suffix) of each axis; the second is there when
    # either of its fields is set, and each needs both
    axes = [(cfg.sweep_param, cfg.sweep_values, "")]
    if cfg.sweep_param2 or cfg.sweep_values2:
        axes.append((cfg.sweep_param2, cfg.sweep_values2, "2"))
    for key, values, axis in axes:
        for field, value in ((f"sweep.param{axis}", key), (f"sweep.values{axis}", values)):
            if not value:
                raise ConfigError(field, f"sweep needs sweep.param{axis} and sweep.values{axis}")
    out = out_dir or cfg.output_dir
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
        try:
            curve = analysis.mean_trajectory(
                problem, opt, schedule, point.steps, point.n_seeds, point.base_seed, x0=x0,
            )
            final_d = float(curve.mean_dist_sq[-1])
            final_l = float(curve.mean_loss[-1])
            try:
                fit = analysis.fit_rate(curve, (max(1, point.steps // 100), point.steps))
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


def _gaussian_square_variance(mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Var(X^2) for X ~ N(mu, sd^2): 4 mu^2 sd^2 + 2 sd^4."""
    return 4.0 * mu**2 * sd**2 + 2.0 * sd**4


def _estimator_fixture_checks() -> list[CheckResult]:
    """Monte Carlo estimator statistics against the closed-form Gaussian
    references, on a frozen quadratic state. Each line reports the largest
    per-coordinate deviation in standard errors (bound: 3 SE), taken from
    the sampled estimates the statistic itself reduces."""
    h = np.array([1.0, 2.0, 0.5])
    sigma = np.array([0.5, 1.0, 1.5])
    problem = NoisyQuadratic(h=h, sigma=sigma, x_star=np.zeros(3))
    x = np.array([1.2, -0.7, 2.0])
    m_prev = np.array([0.5, -1.0, 0.25])
    v_prev = np.array([1.0, 1.5, 2.0])
    mu_g = h * x
    sd_g = h * sigma
    n_mc = 10**5
    beta1, beta2 = 0.9, 0.95
    state_mv = OptimizerState(t=1, m=m_prev, v=v_prev)
    state_m = OptimizerState(t=1, m=m_prev, v=None)
    checks = []

    def within_3se(name, observed, expected, se):
        se = np.where(se > 0, se, 1e-300)
        dev = float(np.max(np.abs(observed - expected) / se))
        checks.append(CheckResult(name, dev, 3.0, "max dev <= 3 SE", dev <= 3.0))

    # EMA of the squared momentum
    opt = OptimizerConfig("bcos_m", beta1=beta1, beta2=beta2, epsilon=1e-6)
    stats = analysis.estimator_stats(problem, x, state_mv, opt, n_mc, seed=101)
    mu_m = beta1 * m_prev + (1 - beta1) * mu_g
    sd_m = (1 - beta1) * sd_g
    expected = (1 - beta2) ** 2 * _gaussian_square_variance(mu_m, sd_m)
    within_3se("ema_variance_dev_se", stats.variance, expected, mc_variance_se(stats.v_draws))

    # the squared-gradient EMA paired with a momentum direction
    opt = OptimizerConfig("adam", beta1=beta1, beta2=beta2, epsilon=1e-6)
    stats = analysis.estimator_stats(problem, x, state_mv, opt, n_mc, seed=102)
    expected = (1 - beta2) ** 2 * _gaussian_square_variance(mu_g, sd_g)
    within_3se("adam_variance_dev_se", stats.variance, expected, mc_variance_se(stats.v_draws))

    # conditional estimator: variance and signed bias
    opt = OptimizerConfig("bcos_c", beta1=beta1, epsilon=1e-6)
    stats = analysis.estimator_stats(problem, x, state_m, opt, n_mc, seed=103)
    expected = (1 - beta1) ** 4 * _gaussian_square_variance(mu_g, sd_g)
    within_3se("conditional_variance_dev_se", stats.variance, expected,
               mc_variance_se(stats.v_draws))
    bias_expected = 2 * beta1 * (1 - beta1) * m_prev * (m_prev - mu_g)
    signed = stats.mean_v - stats.exact_second_moment
    within_3se("conditional_bias_dev_se", signed, bias_expected, mc_mean_se(stats.v_draws))

    # sign mode: v = d^2 is unbiased
    opt = OptimizerConfig("sign_sgd", beta1=0.0, epsilon=0.0)
    stats = analysis.estimator_stats(problem, x, OptimizerState(), opt, n_mc, seed=104)
    within_3se("sign_bias_dev_se", stats.mean_v, stats.exact_second_moment,
               mc_mean_se(stats.v_draws))

    # constant estimator: exactly zero variance
    opt = OptimizerConfig("sgd", beta1=0.0, epsilon=0.0)
    stats = analysis.estimator_stats(problem, x, OptimizerState(), opt, n_mc, seed=105)
    obs = float(np.max(stats.variance))
    checks.append(CheckResult("constant_variance_zero", obs, 0.0, "exact", obs == 0.0))
    return checks


def _counterexample_checks() -> tuple[list[CheckResult], list[CheckResult]]:
    log_report = problems.counterexample_log_aiming()
    min_inner = min(r.inner_product for r in log_report.rows)
    max_curv = max(r.curvature_witness for r in log_report.rows)
    log_checks = [
        CheckResult("log_aiming_min_inner", min_inner, 0.0, "observed >= 0",
                    log_report.aiming_all_pass),
        CheckResult("log_concavity_max_second_derivative", max_curv, 0.0,
                    "observed < 0", log_report.convexity_all_fail),
    ]
    quad = problems.counterexample_quadratic_not_aiming()
    eig_err = float(np.max(np.abs(quad["eigenvalues"] - np.array([0.0, 5.0]))))
    quad_checks = [
        CheckResult("quadratic_aiming_value", quad["aiming_value"], -0.5,
                    "exact equality", quad["aiming_value"] == -0.5),
        CheckResult("quadratic_eigenvalues_dev", eig_err, 1e-12,
                    "abs dev <= 1e-12", eig_err <= 1e-12),
        CheckResult("quadratic_psd", float(quad["psd_certified"]), 1.0, "certified",
                    quad["psd_certified"]),
    ]
    return log_checks, quad_checks


def cmd_verify(cfg: ExperimentConfig) -> int:
    """Print the fixed check catalog; 1 if any check fails, else 0. cfg is not read.

    The decay recursions run on a worker thread while this thread runs the
    counterexamples and the estimator catalog; the ratio expansion runs
    alone after the join. Every large numpy call releases the GIL, so the
    two overlap on two cores. The recursions and the catalog together
    (about 23 + 14 MiB traced) stay under the ratio expansion's 38 MiB,
    which still sets the peak. The worker runs in a copy of the caller's
    context, so the caller's np.errstate holds there too, and its error is
    raised here after the join. The output is printed in the catalog's order
    once every section is done, the same bytes as one section after another."""
    # imported here: a module import would add to every command's start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        chung = pool.submit(contextvars.copy_context().run, analysis.verify_chung_recursions)
        log_checks, quad_checks = _counterexample_checks()
        catalog = _estimator_fixture_checks()
        chung_checks = chung.result().checks
    sections = [
        ("counterexample_log_aiming", log_checks),
        ("counterexample_quadratic_not_aiming", quad_checks),
        ("chung_recursions", chung_checks),
        ("ratio_expansion", analysis.verify_ratio_expansion().checks),
        ("estimator_catalog", catalog),
    ]
    all_pass = True
    print("name,observed,bound,tolerance,status")
    for name, checks in sections:
        print(f"# {name}")
        for check in checks:
            print(check.format_line())
            all_pass &= check.passed
    return 0 if all_pass else 1


def cmd_counterexamples(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    log_report = problems.counterexample_log_aiming()
    quad = problems.counterexample_quadratic_not_aiming()
    print(log_report.render_text())
    print(problems.render_quadratic_report(quad))
    if out_dir:
        write_outputs(out_dir, cfg, {"counterexample_log.csv": "\n".join(log_report.csv_rows()) + "\n"})
    log_ok = log_report.aiming_all_pass and log_report.convexity_all_fail
    quad_ok = quad["aiming_violated"] and quad["psd_certified"]
    return 0 if (log_ok and quad_ok) else 1


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
            p.add_argument("--out", help="override run.output_dir")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
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
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
