"""Numerical verification machinery: trajectory statistics, convergence-rate
fitting, Monte Carlo estimator diagnostics, the leading-order bound on the
practical-vs-exact step gap, and deterministic recursion checks.

Every operation is a pure function of its inputs and an owned seed, so
aggregate outputs are reproducible regardless of scheduling. Monte Carlo
tolerances are stated in standard errors (3 SE unless noted) so strictness
scales with the sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import BlockPartition, ParamVector
from .optim import (
    ALGORITHMS,
    MomentOracle,
    OptimizerConfig,
    OptimizerState,
    conceptual_step,
    init_state,
    momentum_moments,
    propose,
    step,
)
from .problems import (
    MC_STREAM,
    TRAJECTORY_STREAM,
    NoisyQuadratic,
    StochasticProblem,
    aiming_inner_product,
    make_rng,
)
from .schedules import StepSchedule, value_at

DIVERGENCE_THRESHOLD = 1e12


class AnalysisError(ValueError):
    pass


class DivergenceError(RuntimeError):
    """A trajectory blew past the divergence threshold. The message names the
    seed index, the step and the squared distance; ``records`` ends with the
    diverged seed's record at that step (the per-seed engine also keeps the
    records before it)."""

    def __init__(self, message: str, records):
        super().__init__(message)
        self.records = records


@dataclass(frozen=True)
class CheckResult:
    """One machine-readable pass/fail line: name, observed, bound, tolerance."""

    name: str
    observed: float
    bound: float
    tolerance: str
    passed: bool

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name},{self.observed!r},{self.bound!r},{self.tolerance},{status}"


@dataclass(frozen=True)
class TrajectoryRecord:
    t: int
    dist_sq: float
    loss: float
    alpha_t: float
    aiming_value: float | None = None
    estimator_diag: object | None = None


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]


@dataclass(frozen=True)
class MeanCurve:
    """Pointwise seed statistics of squared distance to the target.

    ``sigma`` holds the step-gap diagnostic sampled along the first seed's
    trajectory when requested (nan elsewhere)."""

    t: np.ndarray
    mean_dist_sq: np.ndarray
    se_dist_sq: np.ndarray
    mean_loss: np.ndarray
    alpha: np.ndarray
    aiming_min: np.ndarray
    n_seeds: int
    sigma: np.ndarray | None = None

    def sigma_column(self) -> np.ndarray:
        if self.sigma is None:
            return np.full(self.t.shape[0], np.nan)
        return self.sigma


# ---------------------------------------------------------------------------
# trajectories


def _direction_oracle(problem, config, state, x, partition):
    """Exact moments of the search direction the optimizer is about to use,
    or None when unavailable (no problem oracle, or momentum not yet primed)."""
    lam = config.weight_decay_lambda
    fold = lam if (lam > 0 and not config.decoupled) else 0.0
    # adam steps along the momentum even though its estimate averages
    # squared gradients; the table says which
    if ALGORITHMS[config.algorithm].direction == "gradient":
        return problem.grad_moments(x, partition=partition, fold_lambda=fold)
    if state.m is None:
        return None
    coord = BlockPartition.singleton(problem.dim)
    g_coord = problem.grad_moments(x, partition=coord, fold_lambda=fold)
    if g_coord is None:
        return None
    mean, second = momentum_moments(
        config.beta1, state.m, g_coord.mean_d, g_coord.second_moment_d
    )
    part = partition if partition is not None else coord
    return MomentOracle(mean, part.block_sums(second), part)


def _aiming_lambda(config: OptimizerConfig) -> float:
    return config.weight_decay_lambda if config.decoupled else 0.0


def run_trajectory(
    problem: StochasticProblem,
    config: OptimizerConfig,
    schedule: StepSchedule,
    T: int,
    base_seed: int,
    seed_index: int = 0,
    x0: np.ndarray | None = None,
    partition: BlockPartition | None = None,
    record_aiming: bool = True,
    sigma_every: int = 0,
    sigma_n_mc: int = 10**4,
) -> list[TrajectoryRecord]:
    """Run T steps from x0, recording one row per iterate (T+1 rows total).

    Deterministic given (base_seed, seed_index). Aborts with DivergenceError
    once the squared distance (or the squared norm, when no target is known)
    exceeds 1e12. With sigma_every > 0, Monte Carlo estimator diagnostics are
    attached to every sigma_every-th record (needs a moment oracle and a
    practical algorithm; skipped otherwise).
    """
    if T < 0:
        raise AnalysisError("T must be >= 0")
    if partition is None:
        partition = BlockPartition.singleton(problem.dim)
    start = problem.default_start() if x0 is None else np.asarray(x0, dtype=np.float64)
    x = ParamVector(start, partition)
    rng = make_rng(base_seed, TRAJECTORY_STREAM, seed_index)
    state = init_state()
    lam = config.weight_decay_lambda
    lam_aim = _aiming_lambda(config)
    conceptual = config.algorithm == "conceptual_bcos"
    records: list[TrajectoryRecord] = []

    def snapshot(t: int) -> TrajectoryRecord:
        if problem.x_star is not None:
            diff = x.values - problem.x_star
            # einsum matches the batched ensemble kernel bit for bit
            dist_sq = float(np.einsum("i,i->", diff, diff))
        else:
            dist_sq = float("nan")
        aiming = None
        if record_aiming and problem.x_star is not None:
            oracle = _direction_oracle(problem, config, state, x.values, partition)
            # a zero second moment means the direction is degenerate
            # (converged noiseless state); the aiming value is undefined there
            if oracle is not None and np.all(oracle.second_moment_d > 0):
                aiming = aiming_inner_product(problem, x.values, lam_aim, oracle)
        diag = None
        if (
            sigma_every > 0
            and t > 0
            and t % sigma_every == 0
            and not conceptual
            and state.initialized
        ):
            try:
                diag = estimator_stats(problem, x.values, state, config,
                                       sigma_n_mc, seed=base_seed, key=(t,))
            except AnalysisError:
                diag = None
        return TrajectoryRecord(
            t=t,
            dist_sq=dist_sq,
            loss=problem.loss(x.values),
            alpha_t=value_at(schedule, t),
            aiming_value=aiming,
            estimator_diag=diag,
        )

    for t in range(T):
        records.append(snapshot(t))
        gauge = records[-1].dist_sq
        if not math.isnan(gauge):
            size = gauge
        else:
            size = float(np.dot(x.values, x.values))
        if size > DIVERGENCE_THRESHOLD:
            raise DivergenceError(
                f"seed {seed_index} diverged at t={t}: squared distance {size:.3e}", records
            )
        alpha = value_at(schedule, t)
        g = problem.sample_gradient(x.values, rng)
        if conceptual:
            fold = lam if (lam > 0 and not config.decoupled) else 0.0
            oracle = problem.grad_moments(x.values, partition=partition, fold_lambda=fold)
            if oracle is None:
                raise AnalysisError("conceptual runs need a problem with exact moments")
            d = g + fold * x.values if fold else g
            lam_step = lam if config.decoupled else 0.0
            x = conceptual_step(oracle, x, ParamVector(d, partition), alpha, lam_step)
        else:
            x, state = step(config, state, x, ParamVector(g, partition), alpha)
    records.append(snapshot(T))
    return records


def _shifted_mean_se(reference: np.ndarray, delta_sum: np.ndarray,
                     delta_sq_sum: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error from sums of deviations against a reference
    curve. Exactly zero SE when every curve equals the reference."""
    mean = reference + delta_sum / n
    var = (delta_sq_sum - delta_sum**2 / n) / (n - 1)
    var = np.maximum(var, 0.0)
    return mean, np.sqrt(var / n)


def uses_vectorized_ensemble(problem, config: OptimizerConfig,
                             partition: BlockPartition | None = None) -> bool:
    """True when mean_trajectory will take the seed-vectorized path
    (conceptual updates on a Gaussian quadratic with coordinatewise blocks)."""
    singleton = partition is None or partition.num_blocks == problem.dim
    return (
        config.algorithm == "conceptual_bcos"
        and isinstance(problem, NoisyQuadratic)
        and problem.noise == "gaussian"
        and singleton
        and not (config.weight_decay_lambda > 0 and not config.decoupled)
    )


def mean_trajectory(
    problem: StochasticProblem,
    config: OptimizerConfig,
    schedule: StepSchedule,
    T: int,
    n_seeds: int,
    base_seed: int = 0,
    x0: np.ndarray | None = None,
    partition: BlockPartition | None = None,
    sigma_every: int = 0,
) -> MeanCurve:
    """Pointwise mean and standard error of dist_sq over independent seeds.

    Seeds are derived by splitting base_seed so streams never overlap; the
    reduction runs in seed-index order, so the output is reproducible. A
    vectorized path covers the heavy conceptual-on-quadratic ensembles and
    reproduces the per-seed loop bit for bit. Estimator diagnostics
    (sigma_every > 0) are sampled along the first seed only.
    """
    if n_seeds < 2:
        raise AnalysisError("n_seeds must be >= 2")
    if uses_vectorized_ensemble(problem, config, partition) and sigma_every == 0:
        return _conceptual_quadratic_ensemble(problem, config, schedule, T, n_seeds,
                                              base_seed, x0)

    ref = None
    d_sum = d_sq = None
    loss_sum = None
    aim_min = None
    alphas = None
    sigma = None
    for i in range(n_seeds):
        records = run_trajectory(problem, config, schedule, T, base_seed,
                                 seed_index=i, x0=x0, partition=partition,
                                 sigma_every=sigma_every if i == 0 else 0)
        dist = np.array([r.dist_sq for r in records])
        loss = np.array([r.loss for r in records])
        aim = np.array([np.nan if r.aiming_value is None else r.aiming_value
                        for r in records])
        if ref is None:
            ref = dist
            d_sum = np.zeros_like(dist)
            d_sq = np.zeros_like(dist)
            loss_sum = np.zeros_like(loss)
            aim_min = aim
            alphas = np.array([r.alpha_t for r in records])
            sigma = np.array([
                np.nan if r.estimator_diag is None else r.estimator_diag.sigma_t
                for r in records
            ])
        else:
            delta = dist - ref
            d_sum += delta
            d_sq += delta * delta
            aim_min = np.fmin(aim_min, aim)
        loss_sum += loss
    mean, se = _shifted_mean_se(ref, d_sum, d_sq, n_seeds)
    return MeanCurve(
        t=np.arange(T + 1),
        mean_dist_sq=mean,
        se_dist_sq=se,
        mean_loss=loss_sum / n_seeds,
        alpha=alphas,
        aiming_min=aim_min,
        n_seeds=n_seeds,
        sigma=sigma,
    )


# steps per pass of the vectorized ensemble recorder: its numpy calls cost
# the same for one row as for a few hundred, so they run once per block
_BLOCK = 256


def _conceptual_quadratic_ensemble(problem: NoisyQuadratic, config, schedule,
                                   T, n_seeds, base_seed, x0) -> MeanCurve:
    n = problem.dim
    h, sig, x_star = problem.h, problem.sigma, problem.x_star
    lam = config.weight_decay_lambda if config.decoupled else 0.0
    start = problem.default_start() if x0 is None else np.asarray(x0, dtype=np.float64)
    X = np.tile(start, (n_seeds, 1))
    rngs = [make_rng(base_seed, TRAJECTORY_STREAM, i) for i in range(n_seeds)]

    curves = tuple(np.empty(T + 1) for _ in range(4))
    alphas = np.array([value_at(schedule, t) for t in range(T + 1)])
    var = (h * sig) ** 2

    def update(X, xi, alpha):
        # expressions mirror sample_gradient/conceptual_step exactly so each
        # seed's path is bit-identical to its run_trajectory replay
        mean_g = h * (X - x_star)
        g = mean_g - h * (sig * xi)
        den = np.sqrt(mean_g * mean_g + var)
        return (1.0 - alpha * lam) * X - alpha * g / den

    history = np.empty((min(_BLOCK, T + 1), n_seeds, n))
    t0 = 0  # first step whose iterate is not yet recorded
    caller_errors = np.geterr()

    def flush(t_end: int) -> None:
        nonlocal t0
        if t_end > t0:
            with np.errstate(**caller_errors):
                _record_block(problem, lam, alphas, history[: t_end - t0], t0, curves)
        t0 = t_end

    chunk = max(1, int(4_000_000 / max(1, n_seeds * n)))
    noise = np.empty((n_seeds, min(chunk, T), n))
    t = 0
    while t < T:
        width = min(chunk, T - t)
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=noise[i, :width])
        # steps run on past a divergence until the block is recorded; raising
        # here keeps their floating-point warnings from surfacing
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for j in range(width):
                s = t + j
                history[s - t0] = X
                if s + 1 - t0 == len(history):
                    flush(s + 1)
                try:
                    X = update(X, noise[:, j, :], alphas[s])
                except FloatingPointError:
                    # a recorded row past the threshold ends the run before
                    # this step, as the per-step check did; otherwise the
                    # step is repeated so the caller sees its warnings
                    flush(s + 1)
                    with np.errstate(**caller_errors):
                        X = update(X, noise[:, j, :], alphas[s])
        t += width
    history[T - t0] = X
    flush(T + 1)
    mean_curve, se_curve, loss_curve, aim_curve = curves
    return MeanCurve(
        t=np.arange(T + 1),
        mean_dist_sq=mean_curve,
        se_dist_sq=se_curve,
        mean_loss=loss_curve,
        alpha=alphas,
        aiming_min=aim_curve,
        n_seeds=n_seeds,
    )


def _record_block(problem: NoisyQuadratic, lam: float, alphas: np.ndarray,
                  X: np.ndarray, t0: int, curves: tuple) -> None:
    """Seed statistics of the lockstep iterates X (W, S, n) of steps t0 ..
    t0+W-1, written into rows t0.. of the (mean, SE, loss, aiming-min)
    curves. Raises the ensemble DivergenceError at the first step whose
    largest squared distance passes the threshold.

    Each row is reduced in the same order as a single (S, n) step would be:
    einsum for the distances, sums along the contiguous last axis, and one
    BLAS dot per row for the SE's sum of squares, so the curves do not depend
    on how the steps are split into blocks."""
    W, S, _ = X.shape
    diff = X - problem.x_star
    dist = np.einsum("wij,wij->wi", diff, diff)
    crossed = np.flatnonzero(np.max(dist, axis=1) > DIVERGENCE_THRESHOLD)
    if crossed.size:
        k = int(crossed[0])
        raise _ensemble_divergence(problem, X[k], t0 + k, alphas[t0 + k], lam)
    mean_curve, se_curve, loss_curve, aim_curve = (c[t0 : t0 + W] for c in curves)
    d0 = dist[:, 0]
    delta = dist - d0[:, None]
    s1 = delta.sum(axis=1)
    sq = np.array([np.dot(row, row) for row in delta])
    mean_curve[:] = d0 + s1 / S
    v = (sq - s1 * s1 / S) / (S - 1)
    se_curve[:] = np.sqrt(np.maximum(v, 0.0) / S)
    mean_g = problem.h * diff
    # h*diff*diff and diff*mean_g are the same product, bit for bit
    h_diff_sq = mean_g * diff
    loss_curve[:] = np.mean(0.5 * np.sum(h_diff_sq, axis=2), axis=1)
    den = mean_g * mean_g
    den += (problem.h * problem.sigma) ** 2
    np.sqrt(den, out=den)
    aim = np.sum(np.divide(h_diff_sq, den, out=den), axis=2)
    if lam > 0:
        aim += lam * np.sum(diff * X, axis=2) - lam * dist
    aim_curve[:] = np.min(aim, axis=1)


def _ensemble_divergence(problem, X, t, alpha, lam) -> DivergenceError:
    """The error for the first seed of a lockstep ensemble past the
    threshold, with that seed's record at step t."""
    diff = X - problem.x_star
    dist = np.einsum("ij,ij->i", diff, diff)
    i = int(np.flatnonzero(dist > DIVERGENCE_THRESHOLD)[0])
    oracle = problem.grad_moments(X[i])
    aiming = (aiming_inner_product(problem, X[i], lam, oracle)
              if np.all(oracle.second_moment_d > 0) else None)
    rec = TrajectoryRecord(t, float(dist[i]), problem.loss(X[i]), float(alpha), aiming)
    return DivergenceError(
        f"seed {i} diverged at t={t}: squared distance {rec.dist_sq:.3e}", [rec]
    )


# ---------------------------------------------------------------------------
# rate fitting


def fit_powerlaw(t: np.ndarray, values: np.ndarray, window: tuple[int, int]) -> RateFit:
    """Least-squares slope of log(values) against log(t+1) inside the window."""
    t_lo, t_hi = window
    if t_lo < 1:
        raise AnalysisError("window must start at t >= 1")
    t = np.asarray(t)
    values = np.asarray(values, dtype=np.float64)
    mask = (t >= t_lo) & (t <= t_hi)
    if mask.sum() < 20:
        raise AnalysisError(f"need >= 20 points in window, got {int(mask.sum())}")
    vals = values[mask]
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
        raise AnalysisError("rate fit needs finite, strictly positive values in the window")
    lx = np.log(t[mask] + 1.0)
    ly = np.log(vals)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(float(slope), float(intercept), r2, (int(t_lo), int(t_hi)))


def fit_rate(curve: MeanCurve, window: tuple[int, int]) -> RateFit:
    return fit_powerlaw(curve.t, curve.mean_dist_sq, window)


def rate_preconditions(schedule: StepSchedule, lam: float) -> list[str]:
    """Conditions the sublinear-rate guarantees put on (schedule, lambda)
    jointly; they live here rather than in the schedule because they couple
    the stepsize to the problem's decay factor.

    The 1/t guarantee wants 1/2 < alpha*lambda < 1 for an inverse-time
    schedule; the 1/t^p guarantee wants alpha*lambda < 1 (the exponent range
    is already enforced by the schedule itself).
    """
    out = []
    product = schedule.alpha * lam
    if schedule.kind == "inverse_time":
        if not (0.5 < product < 1.0):
            out.append(
                f"inverse-time rate needs 1/2 < alpha*lambda < 1, got {product}"
            )
    elif schedule.kind == "power":
        if not product < 1.0:
            out.append(f"power rate needs alpha*lambda < 1, got {product}")
    else:
        out.append(f"no sublinear-rate guarantee for kind {schedule.kind!r}")
    return out


# ---------------------------------------------------------------------------
# contraction constants


def contraction_noise_bound(n: int, lam: float, x_star: np.ndarray) -> float:
    """The additive noise constant in the one-step contraction bound:
    n + lambda^2 ||x*||^2 + 2 lambda ||x*||_1."""
    x_star = np.asarray(x_star, dtype=np.float64)
    if x_star.shape[0] != n:
        raise AnalysisError(f"x_star has length {x_star.shape[0]}, expected {n}")
    return float(n + lam**2 * np.dot(x_star, x_star) + 2.0 * lam * np.sum(np.abs(x_star)))


@dataclass(frozen=True)
class ContractionCheck:
    mc_mean: float
    mc_se: float
    bound: float
    aiming_value: float
    passed: bool


def one_step_contraction_check(
    problem: StochasticProblem,
    x: np.ndarray,
    alpha: float,
    lam: float,
    n_mc: int = 10**5,
    seed: int = 0,
) -> ContractionCheck:
    """Monte Carlo check of the one-step contraction of the exact-moment
    update: over fresh draws, mean ||x+ - x*||^2 must stay below
    (1 - alpha*lam)^2 ||x - x*||^2 + alpha^2 * noise bound, up to 3 SE."""
    oracle = problem.grad_moments(x)
    if oracle is None or problem.x_star is None:
        raise AnalysisError("contraction check needs exact moments and a target")
    aiming = aiming_inner_product(problem, x, lam, oracle)
    rng = make_rng(seed, MC_STREAM)
    G = problem.sample_gradients(x, rng, n_mc)
    den = np.sqrt(oracle.partition.expand(oracle.second_moment_d))
    X1 = (1.0 - alpha * lam) * np.asarray(x) - alpha * G / den
    diff = X1 - problem.x_star
    dsq = np.einsum("ij,ij->i", diff, diff)
    mc_mean = float(dsq.mean())
    mc_se = float(dsq.std(ddof=1) / math.sqrt(n_mc))
    d0 = np.asarray(x) - problem.x_star
    bound = (1.0 - alpha * lam) ** 2 * float(np.dot(d0, d0)) + alpha**2 * contraction_noise_bound(
        problem.dim, lam, problem.x_star
    )
    return ContractionCheck(mc_mean, mc_se, bound, aiming, mc_mean <= bound + 3 * mc_se)


# ---------------------------------------------------------------------------
# estimator statistics


def mc_mean_se(samples: np.ndarray) -> np.ndarray:
    """Standard error of the sample mean along axis 0."""
    samples = np.asarray(samples)
    return samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])


def mc_variance_se(samples: np.ndarray) -> np.ndarray:
    """Standard error of the sample variance along axis 0, from the fourth
    central moment: Var(s^2) ~ (mu4 - sigma^4)/n."""
    samples = np.asarray(samples)
    n = samples.shape[0]
    centered = samples - samples.mean(axis=0)
    mu4 = np.mean(centered**4, axis=0)
    s2 = samples.var(axis=0, ddof=1)
    return np.sqrt(np.maximum(mu4 - s2**2, 0.0) / n)


@dataclass(frozen=True)
class EstimatorStats:
    """Per-coordinate Monte Carlo diagnostics of a second-moment estimator."""

    mean_d: np.ndarray
    snr_d: np.ndarray
    snr_v: np.ndarray
    corr_dv: np.ndarray
    bias: np.ndarray | None = None
    variance: np.ndarray | None = None
    mean_v: np.ndarray | None = None
    exact_second_moment: np.ndarray | None = None
    tau_hat: float = 0.0
    sigma_t: float = float("nan")
    epsilon: float = 0.0
    n_mc: int = 0


def estimator_stats(
    problem: StochasticProblem,
    x: np.ndarray,
    state: OptimizerState,
    config: OptimizerConfig,
    n_mc: int,
    epsilon: float | None = None,
    seed: int = 0,
    key: tuple[int, ...] = (),
) -> EstimatorStats:
    """Freeze the optimizer state, draw n_mc fresh gradients at x from
    make_rng(seed, MC_STREAM, *key), and measure the bias, variance, SNRs and
    direction correlation of the estimate the next step would divide by, per
    coordinate. Directions and estimates come from ``optim.propose``, which
    ``step`` runs, with the draws as a batch axis. The bias reference E[d^2]
    is exact, from the oracle of the direction the step uses."""
    if n_mc < 10**4:
        raise AnalysisError(f"n_mc must be >= 1e4 for stable estimates, got {n_mc}")
    for name, arr in (("m", state.m), ("v", state.v)):
        if arr is not None and np.asarray(arr).shape != (problem.dim,):
            raise AnalysisError(
                f"estimator stats are coordinatewise; state.{name} must have "
                f"length {problem.dim}"
            )
    alg = config.algorithm
    spec = ALGORITHMS[alg]
    if spec.estimate is None:
        raise AnalysisError(f"{alg} uses exact moments; it has no estimator")
    primed = state.initialized and all(getattr(state, name) is not None for name in spec.state)
    if not primed and (state.initialized or spec.direction == "momentum"):
        raise AnalysisError(f"{alg} estimator stats need a primed state holding {spec.state}")
    eps = config.epsilon if epsilon is None else float(epsilon)
    x = np.asarray(x, dtype=np.float64)
    coord = BlockPartition.singleton(problem.dim)
    oracle = _direction_oracle(problem, config, state, x, coord)
    if oracle is None:
        raise AnalysisError("estimator stats need a problem with exact moments")
    exact_d2 = oracle.second_moment_d
    if spec.direction == "momentum" and config.bias_correction == "zero_init_rescale":
        # the step divides the corrected momentum m/c1
        exact_d2 = exact_d2 / (1.0 - config.beta1 ** (state.t + 1)) ** 2
    if np.any(exact_d2 <= 0):
        raise AnalysisError("estimator stats need E[d^2] > 0 on every coordinate")
    lam = config.weight_decay_lambda
    fold = lam if (lam > 0 and not config.decoupled) else 0.0
    G = problem.sample_gradients(x, make_rng(seed, MC_STREAM, *key), n_mc)
    d, v, _, _ = propose(config, state, G + fold * x if fold else G, coord)

    mean_d = d.mean(axis=0)
    var_d = d.var(axis=0, ddof=1)
    mean_v = v.mean(axis=0)
    var_v = v.var(axis=0, ddof=1)
    bias = np.abs(mean_v - exact_d2)
    with np.errstate(divide="ignore"):
        snr_d = np.where(var_d > 0, mean_d**2 / np.where(var_d > 0, var_d, 1.0), np.inf)
        snr_v = np.where(var_v > 0, (mean_v + eps) ** 2 / np.where(var_v > 0, var_v, 1.0), np.inf)
    dc = d - mean_d
    vc = v - mean_v
    cov = np.einsum("ij,ij->j", dc, vc) / (n_mc - 1)
    denom = np.sqrt(var_d * var_v)
    corr = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    tau_hat = float(np.max(np.maximum(bias - eps, 0.0) / exact_d2))
    stats = EstimatorStats(
        mean_d=mean_d,
        snr_d=snr_d,
        snr_v=snr_v,
        corr_dv=corr,
        bias=bias,
        variance=var_v,
        mean_v=mean_v,
        exact_second_moment=exact_d2,
        tau_hat=tau_hat,
        epsilon=eps,
        n_mc=n_mc,
    )
    # the leading-order gap bound only makes sense for tau < 1
    sigma = step_gap_bound(stats, tau_hat).value if tau_hat < 1.0 else math.inf
    return replace(stats, sigma_t=sigma)


def tau_frontier(stats: EstimatorStats, eps_values) -> list[tuple[float, float]]:
    """(epsilon, smallest tau) pairs for which the two-parameter bias bound
    |E[v] - E[d^2]| <= tau E[d^2] + epsilon holds on every coordinate."""
    if stats.bias is None or stats.exact_second_moment is None:
        raise AnalysisError("frontier needs bias and exact second moments")
    out = []
    for eps in eps_values:
        tau = float(np.max(np.maximum(stats.bias - eps, 0.0) / stats.exact_second_moment))
        out.append((float(eps), tau))
    return out


@dataclass(frozen=True)
class StepGapBound:
    """Leading-order bound on the relative gap between the practical and
    exact-moment expected steps, with the size of the truncated terms."""

    value: float
    bias_term: float
    correlation_term: float
    truncation: float


def step_gap_bound(stats: EstimatorStats, tau: float) -> StepGapBound:
    """tau/2 + (1 + tau/2) * max_i |(1/2) Corr(d,v)| / sqrt(SNR_d SNR_{v+eps}).

    Coordinates with E[d] = 0 carry zero weight in the underlying bound and
    are excluded from the max. Higher-order O(tau^2) and O(1/SNR_v) terms are
    truncated; their magnitude is reported as ``truncation``.
    """
    if not (0.0 <= tau < 1.0):
        raise AnalysisError(f"tau must lie in [0, 1), got {tau}")
    include = stats.mean_d != 0.0
    if np.any(include & ~np.isfinite(stats.corr_dv)):
        raise AnalysisError("correlation undefined on a coordinate with nonzero weight")
    if np.any(include):
        with np.errstate(divide="ignore"):
            term = np.abs(0.5 * stats.corr_dv) / np.sqrt(stats.snr_d * stats.snr_v)
        corr_term = float(np.max(np.where(include, term, 0.0)))
        inv_snr_v = float(np.max(np.where(include, 1.0 / stats.snr_v, 0.0)))
    else:
        corr_term = 0.0
        inv_snr_v = 0.0
    bias_term = tau / 2.0
    value = bias_term + (1.0 + bias_term) * corr_term
    truncation = tau**2 / 2.0 + (1.0 + bias_term) * inv_snr_v
    return StepGapBound(value, bias_term, corr_term, truncation)


def normalization_scale_drift(d: np.ndarray, v: np.ndarray, scales) -> dict:
    """Diagnostic contrasting the square-root stepsize normalization with the
    plain (non-square-root) one under gradient rescaling.

    Scaling the direction stream by c scales the second-moment estimate by
    c^2, so d/sqrt(v) is invariant while d/v shrinks like 1/c. Returns the
    worst relative displacement drift of each form across the given scales;
    the plain form is deliberately not offered as an optimizer.
    """
    d = np.asarray(d, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(v <= 0):
        raise AnalysisError("the diagnostic needs strictly positive estimates")
    base_sqrt = d / np.sqrt(v)
    base_plain = d / v
    drift = {"sqrt": 0.0, "plain": 0.0}
    for c in scales:
        step_sqrt = (c * d) / np.sqrt(c * c * v)
        step_plain = (c * d) / (c * c * v)
        drift["sqrt"] = max(drift["sqrt"],
                            float(np.max(np.abs(step_sqrt / base_sqrt - 1.0))))
        drift["plain"] = max(drift["plain"],
                             float(np.max(np.abs(step_plain / base_plain - 1.0))))
    return drift


def neighborhood_radius(sigma_bound: float, eps_term: float, lam: float, n: int) -> float:
    """Worst-case radius of the ball the practical method settles in:
    2 sqrt(n) (sigma + eps) / lambda, using ||.||_1 <= sqrt(n) ||.||."""
    if lam <= 0:
        raise AnalysisError("the radius is defined only for lambda > 0")
    return 2.0 * math.sqrt(n) * (sigma_bound + eps_term) / lam


# ---------------------------------------------------------------------------
# ratio expansion


@dataclass(frozen=True)
class RatioDistribution:
    """Coupled (Y, Z) family with Z > 0 a.s. (lognormal around z_mean) whose
    spread is controlled by a single noise scale."""

    y_mean: float = 1.0
    z_mean: float = 1.0
    coupling: float = 0.5
    y_noise: float = 0.25


@dataclass(frozen=True)
class RatioExpansionRow:
    scale: float
    mc_estimate: float
    expansion: float
    residual: float


@dataclass(frozen=True)
class RatioExpansionReport:
    rows: tuple[RatioExpansionRow, ...]
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_ratio_expansion(
    dist: RatioDistribution = RatioDistribution(),
    n_mc: int = 10**6,
    noise_scales=(0.5, 0.25, 0.125),
    seed: int = 11,
) -> RatioExpansionReport:
    """Check E[Y/sqrt(Z)] against the three-term expansion
    E[Y]/sqrt(E[Z]) * (1 - Cov(Y,Z)/(2 E[Y] E[Z]) + 3 Var(Z)/(8 E[Z]^2)).

    The residual must shrink at least quadratically as the noise scale drops
    (consecutive-scale ratio at least (s_i/s_{i+1})^2 up to a factor of 2).
    The same underlying normal draws serve every scale, which makes the
    ratios stable.
    """
    scales = [float(s) for s in noise_scales]
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise AnalysisError("noise_scales must be strictly decreasing")
    rng = make_rng(seed, MC_STREAM)
    W = rng.standard_normal(n_mc)
    V = rng.standard_normal(n_mc)
    rows = []
    for s in scales:
        Z = dist.z_mean * np.exp(s * W - 0.5 * s * s)
        if np.any(Z <= 0):
            raise AnalysisError("Z must stay strictly positive")
        Y = dist.y_mean + dist.coupling * (Z - dist.z_mean) + dist.y_noise * s * V
        mc = float(np.mean(Y / np.sqrt(Z)))
        my = float(Y.mean())
        mz = float(Z.mean())
        vz = float(Z.var(ddof=1))
        cov = float(np.dot(Y - my, Z - mz) / (n_mc - 1))
        expansion = my / math.sqrt(mz) * (1.0 - cov / (2 * my * mz) + 3.0 * vz / (8 * mz * mz))
        rows.append(RatioExpansionRow(s, mc, expansion, abs(mc - expansion)))
    checks = []
    for a, b in zip(rows, rows[1:]):
        expected = (a.scale / b.scale) ** 2
        observed = a.residual / b.residual if b.residual > 0 else math.inf
        checks.append(
            CheckResult(
                name=f"residual_ratio_{a.scale:g}_to_{b.scale:g}",
                observed=observed,
                bound=expected / 2.0,
                tolerance="ratio >= expected/2",
                passed=observed >= expected / 2.0,
            )
        )
    return RatioExpansionReport(tuple(rows), tuple(checks))


# ---------------------------------------------------------------------------
# deterministic decay recursions


def _scan_linear_recursion(coeff, drive, t0: int, T: int, x0: float,
                           chunk: int = 10**6) -> float:
    """Final value of X_{t+1} = coeff(t) X_t + drive(t), t = t0..T-1, via a
    chunked closed form (log-cumsum) so 1e7+ horizons stay fast and exact to
    float64 even though the recursion is sequential."""
    x = float(x0)
    lo = t0
    while lo < T:
        hi = min(lo + chunk, T)
        t = np.arange(lo, hi, dtype=np.float64)
        c = coeff(t)
        if np.any(c <= 0) or np.any(c >= 1):
            raise AnalysisError("recursion coefficients must lie in (0, 1); raise t0")
        d = drive(t)
        S = np.cumsum(np.log(c))
        x = float(np.exp(S[-1]) * x + np.sum(d * np.exp(S[-1] - S)))
        lo = hi
    return x


@dataclass(frozen=True)
class ChungReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def k_p_tail(p: float, terms: int = 10**7) -> float:
    """Direct summation of sum_{t=1..terms} 1/(t+1)^(2p)."""
    total = 0.0
    lo = 1
    chunk = 10**6
    while lo <= terms:
        hi = min(lo + chunk - 1, terms)
        t = np.arange(lo, hi + 1, dtype=np.float64)
        total += float(np.sum((t + 1.0) ** (-2.0 * p)))
        lo = hi + 1
    return total


def verify_chung_recursions(T: int = 10**7, rel_tol: float = 1e-2) -> ChungReport:
    """Iterate the two classical decay recursions to a long horizon and check
    the scaled iterates settle at their predicted limits.

    Form 1: X_{t+1} = (1 - a/t) X_t + b/t^(p+1) with a > p > 0 has
    t^p X_t -> b/(a-p). Form 2: X_{t+1} = (1 - a/t^p) X_t + b/t^q with
    0 < p < 1 < q has t^(q-p) X_t -> b/a. Parameters are chosen so the
    finite-horizon value sits within the stated tolerance of the limit;
    shallow-decay parameter pairs approach their limit like t^(p-1) and can
    still be 1 or more percent out at t = 1e7.
    """
    checks = []

    def harmonic_form(a, p, b, x0=1.0):
        t0 = int(math.floor(a)) + 1
        x = _scan_linear_recursion(lambda t: 1.0 - a / t,
                                   lambda t: b / t ** (p + 1.0), t0, T, x0)
        return T**p * x

    def power_form(a, p, q, b, x0=1.0):
        t0 = int(math.ceil(a ** (1.0 / p))) + 1
        x = _scan_linear_recursion(lambda t: 1.0 - a / t**p,
                                   lambda t: b / t**q, t0, T, x0)
        return T ** (q - p) * x

    scaled = harmonic_form(2.0, 1.0, 1.0)
    bound = 1.0 / (2.0 - 1.0)
    checks.append(CheckResult("harmonic_decay_a2_p1_b1", scaled, bound,
                              f"|observed-bound| <= {rel_tol:g}*bound",
                              abs(scaled - bound) <= rel_tol * bound))

    scaled = harmonic_form(2.0, 1.0, 0.0)
    # with no drive the scaled iterate decays like 1/t
    checks.append(CheckResult("harmonic_decay_zero_drive", scaled, 10.0 / T,
                              "observed <= 10/T", scaled <= 10.0 / T))

    scaled = power_form(1.0, 0.6, 1.35, 1.0)
    bound = 1.0
    checks.append(CheckResult("power_decay_a1_p0.6_q1.35_b1", scaled, bound,
                              f"|observed-bound| <= {rel_tol:g}*bound",
                              abs(scaled - bound) <= rel_tol * bound))

    scaled = power_form(2.0, 0.75, 1.5, 1.0)
    bound = 0.5
    checks.append(CheckResult("power_decay_a2_p0.75_q1.5_b1", scaled, bound,
                              f"|observed-bound| <= {rel_tol:g}*bound",
                              abs(scaled - bound) <= rel_tol * bound))

    return ChungReport(tuple(checks))
