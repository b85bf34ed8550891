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

from .core import BlockPartition, NonFiniteError, ParamVector
from .optim import (
    ALGORITHMS,
    OptimizerConfig,
    OptimizerState,
    conceptual_update,
    init_state,
    momentum_moments,
    propose,
    step,
)
from .problems import (
    MC_STREAM,
    TRAJECTORY_STREAM,
    StochasticProblem,
    aiming_values,
    make_rng,
)
from .schedules import ScheduleError, StepSchedule, value_at

DIVERGENCE_THRESHOLD = 1e12
# Monte Carlo draws per sampled estimator diagnostic along a trajectory
SIGMA_N_MC = 10**4


class AnalysisError(ValueError):
    pass


class DivergenceError(RuntimeError):
    """A trajectory blew past the divergence threshold. The message names the
    seed index, the step and the squared distance; ``records`` ends with the
    diverged seed's record at that step (run_trajectory also keeps the
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
    trajectory when requested (nan elsewhere, and everywhere in block
    mode)."""

    t: np.ndarray
    mean_dist_sq: np.ndarray
    se_dist_sq: np.ndarray
    mean_loss: np.ndarray
    alpha: np.ndarray
    aiming_min: np.ndarray
    n_seeds: int
    sigma: np.ndarray


# ---------------------------------------------------------------------------
# trajectories


def _direction_moments(problem, config, x, m, partition, out=(None, None)):
    """Exact moments of the search direction the optimizer is about to use at
    the iterates x (..., n): the per-coordinate mean and the per-block second
    moment. m holds the momentum before the step (None before the first).
    None when unavailable (no problem oracle, or momentum not yet primed).
    A method that steps along the gradient writes them into ``out`` when
    given, arrays shaped like the two results."""
    coordinatewise = partition.num_blocks == partition.total_dim
    moments = problem.moments(x, config.fold_lambda, out if coordinatewise else (out[0], None))
    if moments is None:
        return None
    mean, second = moments
    # adam steps along the momentum even though its estimate averages
    # squared gradients; the table says which
    if ALGORITHMS[config.algorithm].direction == "momentum":
        if m is None:
            return None
        mean, second = momentum_moments(config.beta1, m, mean, second)
    if coordinatewise:
        # one coordinate per block: the block sums are the entries themselves
        return mean, second
    return mean, partition.block_sums(second, out[1])


def _seed_record(problem, config, schedule, partition, t, x, moments,
                 diag=None) -> TrajectoryRecord:
    """The record of one seed at step t, from its iterate x and the
    _direction_moments of the direction it is about to take. The aiming value
    is None without moments (or with NaN ones) and where a second moment is
    zero: the direction is degenerate there (a converged noiseless state)."""
    aiming = None
    if problem.x_star is not None:
        diff = x - problem.x_star
        # einsum matches the batched ensemble recorder bit for bit
        dist_sq = float(np.einsum("i,i->", diff, diff))
        if moments is not None:
            value = float(aiming_values(x, diff, dist_sq, config.decay_lambda, *moments,
                                        partition))
            aiming = None if math.isnan(value) else value
    else:
        dist_sq = float("nan")
    return TrajectoryRecord(t, dist_sq, float(problem.loss(x)), value_at(schedule, t),
                            aiming, diag)


def _estimator_diag(problem, config, state, x, t, sigma_every, base_seed, partition):
    """The estimator diagnostics due at step t, or None. They measure the
    coordinatewise estimate, so a run whose step divides by per-block
    estimates (a coarser partition) gets none."""
    if (sigma_every <= 0 or t == 0 or t % sigma_every != 0
            or config.algorithm == "conceptual_bcos"
            or partition.num_blocks != partition.total_dim):
        return None
    try:
        return estimator_stats(problem, x, state, config, SIGMA_N_MC, seed=base_seed, key=(t,))
    except AnalysisError:
        return None


def _nonfinite(config: OptimizerConfig, seed: int, t: int) -> NonFiniteError:
    return NonFiniteError(
        f"{config.algorithm} step produced non-finite parameters at seed {seed}, t={t}"
    )


def _nonfinite_gradient(config: OptimizerConfig, seed: int, t: int) -> NonFiniteError:
    return NonFiniteError(f"{config.algorithm} gradient is non-finite at seed {seed}, t={t}")


def run_trajectory(
    problem: StochasticProblem,
    config: OptimizerConfig,
    schedule: StepSchedule,
    T: int,
    base_seed: int,
    seed_index: int = 0,
    x0: np.ndarray | None = None,
    partition: BlockPartition | None = None,
    sigma_every: int = 0,
) -> list[TrajectoryRecord]:
    """Run T steps from x0, recording one row per iterate (T+1 rows total).

    Deterministic given (base_seed, seed_index). Aborts with DivergenceError
    once a recorded squared distance (or the squared norm, when no target is
    known) exceeds 1e12, the last one included. With sigma_every > 0, Monte
    Carlo estimator diagnostics are attached to every sigma_every-th record
    (needs a moment oracle, a practical algorithm and coordinatewise blocks;
    skipped otherwise). A non-finite gradient, or a step that makes the
    iterate non-finite, raises NonFiniteError naming the seed and the step,
    as mean_trajectory does.
    """
    if T < 0:
        raise AnalysisError("T must be >= 0")
    if partition is None:
        partition = BlockPartition.singleton(problem.dim)
    start = problem.default_start() if x0 is None else np.asarray(x0, dtype=np.float64)
    x = ParamVector(start, partition)
    rng = make_rng(base_seed, TRAJECTORY_STREAM, seed_index)
    state = init_state()
    conceptual = config.algorithm == "conceptual_bcos"
    if conceptual and problem.moments(start) is None:
        raise AnalysisError("conceptual runs need a problem with exact moments")
    lam = config.decay_lambda
    records: list[TrajectoryRecord] = []
    for t in range(T + 1):
        moments = _direction_moments(problem, config, x.values, state.m, partition)
        diag = _estimator_diag(problem, config, state, x.values, t, sigma_every,
                               base_seed, partition)
        records.append(_seed_record(problem, config, schedule, partition, t, x.values,
                                    moments, diag))
        gauge = records[-1].dist_sq
        if not math.isnan(gauge):
            size = gauge
        else:
            size = float(np.dot(x.values, x.values))
        if size > DIVERGENCE_THRESHOLD:
            raise DivergenceError(
                f"seed {seed_index} diverged at t={t}: squared distance {size:.3e}", records
            )
        if t == T:
            return records
        alpha = value_at(schedule, t)
        # the conceptual method's sampled direction is its exact mean minus
        # the additive noise it draws
        g = problem.draw(rng) if conceptual else problem.sample_gradient(x.values, rng)
        if not np.isfinite(g).all():
            raise _nonfinite_gradient(config, seed_index, t)
        try:
            if conceptual:
                # a zero second moment makes x non-finite
                mean, second = moments
                x = ParamVector(conceptual_update(x.values, mean - g, second, alpha, lam,
                                                  partition), partition)
            else:
                x, state = step(config, state, x, ParamVector(g, partition), alpha)
        except NonFiniteError as exc:
            raise _nonfinite(config, seed_index, t) from exc


# steps per pass of the ensemble recorder: its numpy calls cost the same for
# one row as for a few hundred, so they run once per block
_BLOCK = 256


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

    The seeds advance in lockstep on an (S, n) iterate array. Seed i draws
    its noise in chunks from make_rng(base_seed, TRAJECTORY_STREAM, i), so
    its path is the run_trajectory(seed_index=i) replay bit for bit. The
    conceptual method steps every seed at once with its exact moments; the
    practical methods take every seed's gradient at once when the problem
    has an oracle and call ``step`` once per seed. The diagnostics of each
    block of steps are recorded at once and reduced in seed-index order, so
    the output is reproducible. Estimator diagnostics (sigma_every > 0) are
    sampled along the first seed only, and only with coordinatewise blocks.
    """
    if n_seeds < 2:
        raise AnalysisError("n_seeds must be >= 2")
    if T < 0:
        raise AnalysisError("T must be >= 0")
    if partition is None:
        partition = BlockPartition.singleton(problem.dim)
    start = problem.default_start() if x0 is None else np.asarray(x0, dtype=np.float64)
    conceptual = config.algorithm == "conceptual_bcos"
    oracle = problem.moments(start) is not None
    if conceptual and not oracle:
        raise AnalysisError("conceptual runs need a problem with exact moments")
    momentum = ALGORITHMS[config.algorithm].direction == "momentum"
    rngs = [make_rng(base_seed, TRAJECTORY_STREAM, i) for i in range(n_seeds)]
    alphas = np.array([value_at(schedule, t) for t in range(T + 1)])
    curves = tuple(np.empty(T + 1) for _ in range(4))
    sigma = np.full(T + 1, np.nan)
    X = np.tile(start, (n_seeds, 1))
    points = [ParamVector(start, partition)] * n_seeds
    states = [init_state()] * n_seeds
    # each step writes the next iterates into this buffer, which then swaps
    # with X; the conceptual step writes the direction E[d] - Z there first
    spare = np.empty_like(X)
    lam = config.decay_lambda

    def advance(Z, s, moments):
        """The iterates, points and states after step s for the draws Z, from
        the direction's moments at X; the current ones stay as they are, so a
        failed step can be repeated."""
        if conceptual:
            # a non-finite draw fails as its replay does; only a chunk
            # holding one is checked step by step
            if not finite_chunk:
                bad = np.flatnonzero(~np.isfinite(Z).all(axis=1))
                if bad.size:
                    raise _nonfinite_gradient(config, int(bad[0]), s)
            mean, second = moments
            direction = np.subtract(mean, Z, out=spare)
            x_new = conceptual_update(X, direction, second, alphas[s], lam, partition,
                                      out=direction)
            return x_new, points, states
        # with an oracle the gradient is elementwise, so one call on every
        # row equals the per-row calls bit for bit. Once all of it is checked
        # finite its rows need no second scan; otherwise each row is checked
        # before its step, so the first bad row fails as its replay does
        G = (problem.gradient(X, Z) if oracle
             else np.stack([problem.gradient(x, z) for x, z in zip(X, Z)]))
        checked = np.isfinite(G).all()
        new_points, new_states = [], []
        for i in range(n_seeds):
            if not checked and not np.isfinite(G[i]).all():
                raise _nonfinite_gradient(config, i, s)
            g = ParamVector._wrap(G[i], partition)
            try:
                x, state = step(config, states[i], points[i], g, alphas[s])
            except NonFiniteError as exc:
                raise _nonfinite(config, i, s) from exc
            spare[i] = x.values
            new_points.append(x)
            new_states.append(state)
        return spare, new_points, new_states

    # the iterates before each step of the current block and the exact
    # moments of the direction each seed takes there, NaN without an oracle
    # (no problem oracle, or a momentum not yet primed)
    rows = min(_BLOCK, T + 1)
    history = np.empty((rows, n_seeds, problem.dim))
    mean_history = np.full_like(history, np.nan)
    second_history = np.full((rows, n_seeds, partition.num_blocks), np.nan)
    t0 = 0  # first step whose iterate is not yet recorded
    caller_errors = np.geterr()

    def flush(t_end: int) -> None:
        nonlocal t0
        if t_end > t0:
            w = t_end - t0
            with np.errstate(**caller_errors):
                _record_block(problem, config, schedule, partition, history[:w],
                              mean_history[:w], second_history[:w], t0, curves)
        t0 = t_end

    def keep(s: int):
        """Keep the iterates before step s and their direction moments for
        the recorder; returns the moments (None without an oracle)."""
        primed = not momentum or s > 0
        m = np.stack([state.m for state in states]) if momentum and primed else None

        def exact_moments():
            # the conceptual moments go straight into the history rows
            k = s - t0
            out = (mean_history[k], second_history[k]) if conceptual else (None, None)
            return _direction_moments(problem, config, X, m, partition, out) if primed else None

        try:
            kept = exact_moments()
        except FloatingPointError:
            # as for a step: a kept row past the threshold ends the run first
            flush(s)
            with np.errstate(**caller_errors):
                kept = exact_moments()
        history[s - t0] = X
        if kept is not None and not conceptual:
            mean_history[s - t0], second_history[s - t0] = kept
        if not conceptual:
            with np.errstate(**caller_errors):
                diag = _estimator_diag(problem, config, states[0], X[0], s, sigma_every,
                                       base_seed, partition)
            if diag is not None:
                sigma[s] = diag.sigma_t
        if s + 1 - t0 == rows:
            flush(s + 1)
        return kept

    # a zero-width draw gives the shape and type of one draw and takes none
    probe = problem.draw(rngs[0], (0,))
    chunk = max(1, int(1_000_000 / max(1, n_seeds * probe.shape[-1])))
    t = 0
    while t < T:
        width = min(chunk, T - t)
        # time-major, so each step reads one contiguous (S, k) slice. A fresh
        # buffer per chunk: once glibc frees the first, its dynamic mmap and
        # trim thresholds rise above the recorder's temporaries, which then
        # stay mapped instead of being faulted in again on every block
        noise = np.empty((width, n_seeds) + probe.shape[1:], probe.dtype)
        for i, rng in enumerate(rngs):
            noise[:, i] = problem.draw(rng, (width,))
        finite_chunk = not conceptual or np.isfinite(noise).all()
        # steps run on past a divergence until the block is recorded; raising
        # here keeps their floating-point warnings from surfacing
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for j in range(width):
                s = t + j
                moments = keep(s)
                try:
                    new = advance(noise[j], s, moments)
                except (FloatingPointError, ValueError):
                    # a recorded row past the threshold ends the run before
                    # this step, as in run_trajectory; otherwise the step is
                    # repeated so the caller sees its warnings and errors
                    flush(s + 1)
                    with np.errstate(**caller_errors):
                        new = advance(noise[j], s, moments)
                    bad = np.flatnonzero(~np.all(np.isfinite(new[0]), axis=1))
                    if bad.size:
                        raise _nonfinite(config, int(bad[0]), s)
                spare = X
                X, points, states = new
        t += width
    keep(T)
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
        sigma=sigma,
    )


def _record_block(problem, config, schedule, partition, X, mean, second, t0, curves) -> None:
    """Seed statistics of the lockstep iterates X (W, S, n) of steps t0 ..
    t0+W-1, written into rows t0.. of the (mean, SE, loss, aiming-min)
    curves; mean (W, S, n) and second (W, S, m) are the exact moments of the
    direction each seed takes there, NaN without an oracle. Raises the
    ensemble DivergenceError at the first step whose largest squared distance
    (squared norm, with no target) passes the threshold.

    Each row is reduced in the same order as a single (S, n) step would be:
    einsum for the distances, sums along the contiguous last axis, and one
    BLAS dot per row for the SE's sum of squares, so the curves do not depend
    on how the steps are split into blocks."""
    W, S, _ = X.shape
    x_star = problem.x_star
    # x* tiled to (S, n): numpy applies a broadcast (n,) operand one row at a time
    diff = X if x_star is None else X - np.tile(x_star, (S, 1))
    dist = np.einsum("wij,wij->wi", diff, diff)
    crossed = np.flatnonzero(np.max(dist, axis=1) > DIVERGENCE_THRESHOLD)
    if crossed.size:
        k = int(crossed[0])
        raise _divergence(problem, config, schedule, partition, t0 + k, X[k], dist[k], mean[k],
                          second[k])
    mean_curve, se_curve, loss_curve, aim_curve = (c[t0 : t0 + W] for c in curves)
    loss_curve[:] = np.mean(problem.loss(X), axis=1)
    if x_star is None:
        for curve in (mean_curve, se_curve, aim_curve):
            curve[:] = np.nan
        return
    d0 = dist[:, 0]
    delta = dist - d0[:, None]
    s1 = delta.sum(axis=1)
    sq = np.array([np.dot(row, row) for row in delta])
    mean_curve[:] = d0 + s1 / S
    v = (sq - s1 * s1 / S) / (S - 1)
    se_curve[:] = np.sqrt(np.maximum(v, 0.0) / S)
    # NaN, skipped by fmin, without an oracle or where a second moment is zero
    aim = aiming_values(X, diff, dist, config.decay_lambda, mean, second, partition)
    aim_curve[:] = np.fmin.reduce(aim, axis=1)


def _divergence(problem, config, schedule, partition, t, X, dist, mean,
                second) -> DivergenceError:
    """The error for the first seed of the lockstep iterates X (S, n) past
    the threshold at step t, with the record its run_trajectory replay ends
    with; dist (S,) holds their squared distances (squared norms, with no
    target), and mean and second are the direction's moments there, as in
    _record_block."""
    i = int(np.flatnonzero(dist > DIVERGENCE_THRESHOLD)[0])
    rec = _seed_record(problem, config, schedule, partition, t, X[i], (mean[i], second[i]))
    return DivergenceError(
        f"seed {i} diverged at t={t}: squared distance {dist[i]:.3e}", [rec]
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
    """Every condition the sublinear-rate guarantees put on (schedule,
    lambda), as human-readable violations; an empty list means the schedule
    is admissible for the theory at this lambda. This is the one home of
    those conditions: they couple the stepsize to the decay factor, so they
    live beside the rates rather than in the schedule.

    The 1/t guarantee wants 1/2 < alpha*lambda < 1 for an inverse-time
    schedule; the 1/t^p guarantee wants alpha*lambda < 1 (the schedule itself
    enforces 1/2 < p < 1). Both kinds peak at alpha and have sum alpha_t = inf
    and sum alpha_t^2 < inf, so an empty list also means peak alpha*lambda
    <= 1 and both series conditions hold. Every other kind has no guarantee.
    A negative lambda raises ScheduleError.
    """
    if lam < 0:
        raise ScheduleError(f"lambda must be >= 0, got {lam}")
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
    x = np.asarray(x, dtype=np.float64)
    moments = problem.moments(x)
    if moments is None or problem.x_star is None:
        raise AnalysisError("contraction check needs exact moments and a target")
    mean, second = moments
    if np.any(second <= 0):
        raise AnalysisError("contraction check needs strictly positive second moments")
    partition = BlockPartition.singleton(problem.dim)
    d0 = x - problem.x_star
    aiming = float(aiming_values(x, d0, np.einsum("i,i->", d0, d0), lam, mean, second,
                                 partition))
    rng = make_rng(seed, MC_STREAM)
    G = problem.sample_gradients(x, rng, n_mc)
    X1 = conceptual_update(x, G, second, alpha, lam, partition)
    diff = X1 - problem.x_star
    dsq = np.einsum("ij,ij->i", diff, diff)
    mc_mean = float(dsq.mean())
    mc_se = float(dsq.std(ddof=1) / math.sqrt(n_mc))
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
    primed = state.t > 0 and all(getattr(state, name) is not None for name in spec.state)
    if not primed and (state.t > 0 or spec.direction == "momentum"):
        raise AnalysisError(f"{alg} estimator stats need a primed state holding {spec.state}")
    eps = config.epsilon
    x = np.asarray(x, dtype=np.float64)
    coord = BlockPartition.singleton(problem.dim)
    moments = _direction_moments(problem, config, x, state.m, coord)
    if moments is None:
        raise AnalysisError("estimator stats need a problem with exact moments")
    exact_d2 = moments[1]
    if spec.direction == "momentum" and config.bias_correction == "zero_init_rescale":
        # the step divides the corrected momentum m/c1
        exact_d2 = exact_d2 / (1.0 - config.beta1 ** (state.t + 1)) ** 2
    if np.any(exact_d2 <= 0):
        raise AnalysisError("estimator stats need E[d^2] > 0 on every coordinate")
    fold = config.fold_lambda
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


def _scan_decay(coeff, drive, t0: int, T: int, x0: float,
                chunk: int = 10**6) -> tuple[float, float]:
    """Final values of X_{t+1} = coeff(t) X_t + drive(t), t = t0..T-1, and of
    the same recursion with no drive, via a chunked closed form (log-cumsum)
    so 1e7+ horizons stay fast and exact to float64 even though the
    recursion is sequential. Without a drive each chunk only multiplies by
    its total decay, so one scan gives both. coeff must return a fresh
    array: it becomes the chunk's work buffer."""
    x = undriven = float(x0)
    lo = t0
    while lo < T:
        hi = min(lo + chunk, T)
        t = np.arange(lo, hi, dtype=np.float64)
        c = coeff(t)
        # min and max propagate NaN, which fails both comparisons
        if not (c.min() > 0 and c.max() < 1):
            raise AnalysisError("recursion coefficients must lie in (0, 1); raise t0")
        d = drive(t)
        S = np.log(c, out=c)
        np.cumsum(S, out=S)
        last = S[-1]
        decay = np.exp(last)
        # the weight exp(S[-1] - S) of each drive term, in place
        np.subtract(last, S, out=S)
        np.exp(S, out=S)
        S *= d
        x = float(decay * x + np.sum(S))
        undriven = float(decay * undriven)
        lo = hi
    return x, undriven


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


def verify_chung_recursions(T: int = 10**7) -> ChungReport:
    """Iterate the two classical decay recursions to a long horizon and check
    the scaled iterates settle at their predicted limits, within 1%.

    Form 1: X_{t+1} = (1 - a/t) X_t + b/t^(p+1) with a > p > 0 has
    t^p X_t -> b/(a-p). Form 2: X_{t+1} = (1 - a/t^p) X_t + b/t^q with
    0 < p < 1 < q has t^(q-p) X_t -> b/a. Parameters are chosen so the
    finite-horizon value sits within the stated tolerance of the limit;
    shallow-decay parameter pairs approach their limit like t^(p-1) and can
    still be 1 or more percent out at t = 1e7.
    """
    rel_tol = 1e-2

    def near(name, scaled, bound):
        return CheckResult(name, scaled, bound, f"|observed-bound| <= {rel_tol:g}*bound",
                           abs(scaled - bound) <= rel_tol * bound)

    def harmonic_form(a, p, b, x0=1.0):
        """The scaled iterate with the drive b and with none."""
        t0 = int(math.floor(a)) + 1
        x, undriven = _scan_decay(lambda t: 1.0 - a / t,
                                  lambda t: b / t ** (p + 1.0), t0, T, x0)
        return T**p * x, T**p * undriven

    def power_form(a, p, q, b, x0=1.0):
        t0 = int(math.ceil(a ** (1.0 / p))) + 1
        x = _scan_decay(lambda t: 1.0 - a / t**p, lambda t: b / t**q, t0, T, x0)[0]
        return T ** (q - p) * x

    # with no drive the scaled iterate decays like 1/t
    harmonic, zero_drive = harmonic_form(2.0, 1.0, 1.0)
    return ChungReport((
        near("harmonic_decay_a2_p1_b1", harmonic, 1.0 / (2.0 - 1.0)),
        CheckResult("harmonic_decay_zero_drive", zero_drive, 10.0 / T,
                    "observed <= 10/T", zero_drive <= 10.0 / T),
        near("power_decay_a1_p0.6_q1.35_b1", power_form(1.0, 0.6, 1.35, 1.0), 1.0),
        near("power_decay_a2_p0.75_q1.5_b1", power_form(2.0, 0.75, 1.5, 1.0), 0.5),
    ))
