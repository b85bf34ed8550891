"""Numerical verification machinery: trajectory statistics, convergence-rate
fitting, Monte Carlo estimator diagnostics, the leading-order bound on the
practical-vs-exact step gap, recursion checks and the verify catalog.

Every operation is a pure function of its inputs and an owned seed, so
aggregate outputs are reproducible regardless of scheduling. Monte Carlo
tolerances are stated in standard errors (3 SE unless noted) so strictness
scales with the sample count.
"""

from __future__ import annotations

import contextvars
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import problems
from .core import BlockPartition, NonFiniteError, ShapeError
from .optim import (
    ALGORITHMS,
    OptimizerConfig,
    OptimizerState,
    conceptual_update,
    momentum_moments,
    propose,
    step,
)
from .problems import (
    MC_STREAM,
    TRAJECTORY_STREAM,
    NoisyQuadratic,
    StochasticProblem,
    aiming_values,
    make_rng,
)
from .schedules import ScheduleError, StepSchedule, value_at

DIVERGENCE_THRESHOLD = 1e12
# Monte Carlo draws per sampled estimator diagnostic along a trajectory
SIGMA_N_MC = 10**4
# floats per piece of verify's large sections: their long arrays are made or
# reduced a piece at a time. At least 128, the block numpy's pairwise sum
# never splits, so _tree_sum's leaves are whole numpy blocks.
_PIECE = 2**15


class AnalysisError(ValueError):
    pass


class DivergenceError(RuntimeError):
    """A trajectory blew past the divergence threshold. The message names the
    seed's stream index, the step k and the squared distance (the squared
    norm, with no target). ``records`` holds the diverged seed's records, each
    a one-seed row of the recorder: from run_trajectory, those of steps
    0 .. k; from mean_trajectory, only its record of step k, which carries
    the estimator diagnostic of step k when the seed is seed 0, the one the
    ensemble's diagnostics follow."""

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
    trajectory when requested, on any partition (nan elsewhere)."""

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


def _estimator_diag(problem, config, state, x, t, sigma_every, base_seed, partition):
    """The estimator diagnostics due at step t of a practical method, or
    None: they measure the estimate the step divides by, one per block of
    the run's partition."""
    if sigma_every <= 0 or t == 0 or t % sigma_every != 0:
        return None
    try:
        return estimator_stats(problem, x, state, config, SIGMA_N_MC, seed=base_seed, key=(t,),
                               partition=partition)
    except AnalysisError:
        return None


def _start(problem: StochasticProblem, config: OptimizerConfig, T: int,
           x0: np.ndarray | None, partition: BlockPartition | None) -> tuple:
    """(partition, start) of a run: the partition, singleton by default, and
    the checked (n,) float64 start, x0 or else the problem's default. The
    lockstep engine takes it first, so run_trajectory and mean_trajectory
    check a start alike."""
    if T < 0:
        raise AnalysisError("T must be >= 0")
    if partition is None:
        partition = BlockPartition.singleton(problem.dim)
    start = problem.default_start() if x0 is None else np.array(x0, dtype=np.float64)
    if partition.total_dim != problem.dim:
        raise ShapeError(f"partition dim {partition.total_dim} != problem dim {problem.dim}")
    if start.shape != (problem.dim,):
        raise ShapeError(f"start shape {start.shape} != ({problem.dim},) of the problem")
    if not np.isfinite(start).all():
        raise NonFiniteError("start contains NaN/Inf entries")
    if config.algorithm == "conceptual_bcos" and problem.moments(start) is None:
        raise AnalysisError("conceptual runs need a problem with exact moments")
    return partition, start


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
    """Run T steps from x0, recording one row per iterate (T+1 rows total):
    the lockstep engine on the one seed seed_index, whose records are the
    rows of its one-seed curves. Deterministic given (base_seed, seed_index).
    Aborts with DivergenceError once a recorded squared distance (or the
    squared norm, when no target is known) exceeds 1e12, the last one
    included. With sigma_every > 0, Monte Carlo estimator diagnostics are
    attached to every sigma_every-th record (needs a moment oracle and a
    practical algorithm; skipped otherwise), as a one-seed engine run keeps
    them whole. A non-finite gradient, or a step that makes the iterate
    non-finite, raises NonFiniteError naming seed_index and the step."""
    alphas, curves, _, diags = _lockstep(problem, config, schedule, T, base_seed, [seed_index],
                                         x0, partition, sigma_every)
    return [_record(curves, t, t, alphas[t], diags.get(t)) for t in range(T + 1)]


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
    """Pointwise mean and standard error of dist_sq over independent seeds:
    the lockstep engine's curves on seeds 0 .. n_seeds-1, reduced in
    seed-index order, so seed i follows run_trajectory(seed_index=i) bit for
    bit. sigma holds the sigma_t of seed 0's estimator diagnostics, and no
    diagnostic is kept past its step. Apart from the (T+1,) curves, the
    footprint does not grow with T."""
    if n_seeds < 2:
        raise AnalysisError("n_seeds must be >= 2")
    alphas, (mean, se, loss, aim), sigma, _ = _lockstep(
        problem, config, schedule, T, base_seed, range(n_seeds), x0, partition, sigma_every)
    # t last: made before the run, it would add to the recorder's peak
    return MeanCurve(np.arange(T + 1), mean, se, loss, alphas, aim, n_seeds, sigma)


def _record(curves, row: int, t: int, alpha: float, diag=None) -> TrajectoryRecord:
    """The record of step t of a one-seed run, read from a row of its
    (mean, SE, loss, aiming-min) curves: the mean of one squared distance is
    that distance, NaN without a target, and an aiming value is None where
    it is NaN (no oracle, a momentum not yet primed, or a zero second
    moment)."""
    dist_sq, _, loss, aiming = (float(c[row]) for c in curves)
    return TrajectoryRecord(t, dist_sq, loss, float(alpha),
                            None if math.isnan(aiming) else aiming, diag)


def _scratch(rows: int, S: int, n: int, m: int) -> tuple:
    """The arrays _record_block works in for slices of up to ``rows`` steps
    of S seeds in n coordinates and m blocks: x - x*, the products, the
    roots of the second moments, and the squared distances with two more
    arrays of row sums."""
    shapes = ((S, n), (S, n), (S, m), (S,), (S,), (S,))
    return tuple(np.empty((rows,) + shape) for shape in shapes)


# the most steps per pass of the ensemble recorder: its numpy calls cost the
# same for one row as for a few hundred, so they run once per block. It is
# also the most noise the ensemble draws at once
_BLOCK = 256
# the most floats per (rows, seeds, n) array of a block (64 rows at 200
# seeds x 4 coordinates): the history, the recorder's scratch, allocated
# once, and its temporaries stay few and small
_SLICE = 51_200


def _lockstep(problem, config, schedule, T, base_seed, seeds, x0, partition, sigma_every):
    """The one loop that advances iterates: T steps from x0 of the seeds
    whose TRAJECTORY_STREAM indices ``seeds`` lists, in lockstep on an (S, n)
    array. Returns (alphas, curves, sigma, diags): the stepsize of each step,
    the (mean, SE, loss, aiming-min) curves, the sigma_t of the first seed's
    estimator diagnostics (NaN where there is none), and the diagnostics by
    step that only a one-seed run keeps. Each pass over s fills the noise
    chunk s starts, keeps row s and, before T, steps and box-tests the new
    iterates. Each full block of cut rows, and the last, goes to
    _record_block in one call, as do the rows before a divergence. Iterates
    with an entry outside the box |x_j| <= reach, which holds only rows
    within the threshold, go to _divergence as they are kept, so a
    divergence raises before the next step: every step and every moment
    computation runs once, under the caller's np.errstate, and none runs
    past it. With one seed the curves are that seed's rows, so its
    DivergenceError holds its records of steps 0 .. k; with more, only a
    seed-0 divergence record keeps its diagnostic. A fault names the lowest
    failing seed by its stream index. The footprint is three history arrays
    of cut rows of S x n floats (64 rows at 200 seeds x 4 coordinates, at
    most 256), one chunk of noise, the recorder's scratch for as many rows
    and the curves."""
    partition, start = _start(problem, config, T, x0, partition)
    S = len(seeds)
    conceptual = config.algorithm == "conceptual_bcos"
    momentum = ALGORITHMS[config.algorithm].direction == "momentum"
    rngs = [make_rng(base_seed, TRAJECTORY_STREAM, i) for i in seeds]
    alphas = np.array([value_at(schedule, t) for t in range(T + 1)])
    X = np.tile(start, (S, 1))
    states = [OptimizerState()] * S
    # the momenta of the states, filled by each step as it fills the iterates
    M = np.empty_like(X) if momentum else None
    # each step writes the next iterates into this buffer, which then swaps
    # with X; the conceptual step writes the direction E[d] - Z there first
    spare = np.empty_like(X)
    lam = config.decay_lambda
    # a row with every entry within reach has a squared distance of at most
    # n (reach + max|x*|)^2, below the threshold
    x_star = problem.x_star
    reach = 0.999 * math.sqrt(DIVERGENCE_THRESHOLD / problem.dim) - (
        0.0 if x_star is None else float(np.abs(x_star).max()))
    box = np.empty_like(X)

    # the iterates before each step of the current block and the exact
    # moments of the direction each seed takes there, NaN without an oracle
    # (no problem oracle, or a momentum not yet primed); a block is one
    # recorder slice
    cut = max(1, min(_BLOCK, T + 1, _SLICE // (S * problem.dim)))
    history = np.empty((cut, S, problem.dim))
    mean_history = np.full_like(history, np.nan)
    second_history = np.full((cut, S, partition.num_blocks), np.nan)
    curves = tuple(np.empty(T + 1) for _ in range(4))
    sigma = np.full(T + 1, np.nan)
    diags = {}
    scratch = _scratch(cut, S, problem.dim, partition.num_blocks)
    t0 = 0  # first step whose iterate is not yet recorded

    def flush(t_end: int) -> None:
        nonlocal t0
        k = t_end - t0
        _record_block(problem, config, partition, history[:k], mean_history[:k],
                      second_history[:k], t0, curves, scratch)
        t0 = t_end

    # a zero-width draw gives the shape and type of one draw and takes none
    probe = problem.draw(rngs[0], (0,))
    chunk = min(_BLOCK, max(1, int(1_000_000 / max(1, S * probe.shape[-1]))))
    # time-major, so each step reads one contiguous (S, k) slice
    noise_buffer = np.empty((min(chunk, T), S) + probe.shape[1:], probe.dtype)
    inside = False  # the start goes to the exact threshold test
    for s in range(T + 1):
        j = s % chunk
        if j == 0 and s < T:
            width = min(chunk, T - s)
            noise = noise_buffer[:width]
            for i, rng in enumerate(rngs):
                noise[:, i] = problem.draw(rng, (width,))
            finite_chunk = not conceptual or np.isfinite(noise).all()

        # keep row s for the recorder, with its direction moments (None
        # without an oracle) and the diagnostic due at s
        k = s - t0
        moments = None
        if not momentum or s > 0:
            # the conceptual moments go straight into the history rows
            out = (mean_history[k], second_history[k]) if conceptual else (None, None)
            moments = _direction_moments(problem, config, X, M, partition, out)
        history[k] = X
        diag = None
        if not conceptual:
            if moments is not None:
                mean_history[k], second_history[k] = moments
            diag = _estimator_diag(problem, config, states[0], X[0], s, sigma_every,
                                   base_seed, partition)
            if diag is not None:
                sigma[s] = diag.sigma_t
                if S == 1:
                    diags[s] = diag
        if not inside and (error := _divergence(problem, config, partition, s, X,
                                                 mean_history[k], second_history[k], seeds,
                                                 alphas[s], diag)):
            flush(s)
            if S == 1:
                # one seed: its records of steps 0 .. s-1 are the rows
                # recorded so far, and the error holds that of step s
                error.records[:0] = [_record(curves, t, t, alphas[t], diags.get(t))
                                     for t in range(s)]
            raise error
        if k + 1 == cut or s == T:
            flush(s + 1)
        if s == T:
            break

        # step s: the iterates after it go into spare, which swaps with X
        Z = noise[j]
        if conceptual:
            mean, second = moments
            # a non-finite draw fails as its replay does, after the rows
            # before it step, so the lowest failing seed is named; only a
            # chunk holding one is checked step by step
            if not finite_chunk:
                bad = np.flatnonzero(~np.isfinite(Z).all(axis=1))
                if bad.size:
                    b = bad[0]
                    direction = np.subtract(mean[:b], Z[:b], out=spare[:b])
                    conceptual_update(X[:b], direction, second[:b], alphas[s], lam, partition,
                                      out=direction)
                    failed = np.flatnonzero(~np.isfinite(direction).all(axis=1))
                    fault, i = (_nonfinite, failed[0]) if failed.size else (_nonfinite_gradient, b)
                    raise fault(config, seeds[i], s)
            direction = np.subtract(mean, Z, out=spare)
            conceptual_update(X, direction, second, alphas[s], lam, partition, out=direction)
        else:
            # one call on every row equals the per-row calls bit for bit.
            # step checks its gradient before it computes anything, so the
            # first bad row fails as its replay does, named by what was
            # non-finite
            G = problem.gradient(X, Z)
            for i in range(S):
                try:
                    spare[i], state = step(config, states[i], X[i], G[i], alphas[s], partition)
                except NonFiniteError as exc:
                    fault = _nonfinite if np.isfinite(G[i]).all() else _nonfinite_gradient
                    raise fault(config, seeds[i], s) from exc
                if momentum:
                    M[i] = state.m
                states[i] = state
        X, spare = spare, X
        # a NaN entry fails the comparison; the method form skips np.max's
        # dispatch, about 1 us a step
        inside = np.abs(X, out=box).max() <= reach
        # a practical step raises on a non-finite row itself
        if conceptual and not inside:
            bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
            if bad.size:
                raise _nonfinite(config, seeds[bad[0]], s)
    return alphas, curves, sigma, diags


def _record_block(problem, config, partition, X, mean, second, t0, curves, scratch) -> None:
    """Seed statistics of the lockstep iterates X (W, S, n) of steps t0 ..
    t0+W-1, written into rows t0.. of the (mean, SE, loss, aiming-min)
    curves: the one reduction of recorded rows, whose one-seed rows are
    run_trajectory's records. mean (W, S, n) and second (W, S, m) are the
    exact moments of the direction each seed takes there, NaN without an
    oracle, and are only read. ``scratch`` holds the arrays the slice works
    in (see _scratch), each of at least W rows. It checks nothing: the
    engine stops a run before a diverged row reaches it.

    Each row is reduced in the same order as a single (S, n) step would be,
    by einsum for the distances and the SE's sum of squares and by sums along
    the contiguous last axis, so the curves do not depend on how the steps
    are split into blocks, nor, with no BLAS call, on the BLAS kernel; they
    do on numpy's generators and the SIMD paths of exp and log."""
    W, S, _ = X.shape
    diffs, products, roots, dist, values, work = (a[:W] for a in scratch)
    x_star = problem.x_star
    # x* tiled to (S, n): numpy applies a broadcast (n,) operand one row at a time
    diff = X if x_star is None else np.subtract(X, np.tile(x_star, (S, 1)), out=diffs)
    dist = np.einsum("wij,wij->wi", diff, diff, out=dist)
    mean_curve, se_curve, loss_curve, aim_curve = (c[t0 : t0 + W] for c in curves)
    if x_star is None:
        for curve in (mean_curve, se_curve, aim_curve):
            curve[:] = np.nan
    else:
        d0 = dist[:, 0]
        if S == 1:
            # one seed's own distance, an overflowed inf included (inf - inf
            # would make the shifted mean NaN), with no spread
            mean_curve[:], se_curve[:] = d0, 0.0
        else:
            delta = np.subtract(dist, d0[:, None], out=values)
            s1 = delta.sum(axis=1)
            sq = np.einsum("ws,ws->w", delta, delta, out=work[:, 0])
            mean_curve[:] = d0 + s1 / S
            v = (sq - s1 * s1 / S) / (S - 1)
            se_curve[:] = np.sqrt(np.maximum(v, 0.0) / S)
        # NaN, skipped by fmin, without an oracle or where a second moment is zero
        aim = aiming_values(X, diff, dist, config.decay_lambda, mean, second, partition,
                            (products, roots, values, work))
        aim_curve[:] = np.fmin.reduce(aim, axis=1)
    # last: the loss takes over the scratch of x - x* and of the products
    loss_curve[:] = np.mean(problem.loss(X, (diffs, products, values)), axis=1)


def _divergence(problem, config, partition, t, X, mean, second, seeds, alpha,
                diag) -> DivergenceError | None:
    """The error for the first of the lockstep iterates X (S, n) of step t
    whose squared distance (squared norm, with no target), the recorder's
    einsum on the (1, S, n) row, passes the threshold, named by its stream
    index in seeds; None when none does. mean and second are the moments
    there, as in _record_block. Its one record is _record_block's reduction
    of that seed's one row, with diag, step t's diagnostic, when that seed
    is seed 0, along which the diagnostics are made."""
    diff = X[None] if problem.x_star is None else X[None] - np.tile(problem.x_star, (len(X), 1))
    dist = np.einsum("wij,wij->wi", diff, diff)[0]
    crossed = np.flatnonzero(dist > DIVERGENCE_THRESHOLD)
    if not crossed.size:
        return None
    i = int(crossed[0])
    curves = tuple(np.empty(1) for _ in range(4))
    _record_block(problem, config, partition, X[None, i : i + 1], mean[None, i : i + 1],
                  second[None, i : i + 1], 0, curves,
                  _scratch(1, 1, problem.dim, partition.num_blocks))
    return DivergenceError(f"seed {seeds[i]} diverged at t={t}: squared distance {dist[i]:.3e}",
                           [_record(curves, 0, t, alpha, diag if i == 0 else None)])


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
    # the centred closed form of the least-squares line, with no LAPACK call
    cx, dy = lx - lx.mean(), ly - ly.mean()
    slope = float(np.sum(cx * dy) / np.sum(cx * cx))
    ss_tot = float(np.sum(dy**2))
    r2 = 1.0 - float(np.sum((dy - slope * cx) ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope, float(ly.mean() - slope * lx.mean()), r2, (int(t_lo), int(t_hi)))


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
    if n_mc < 2:
        raise AnalysisError(f"n_mc must be >= 2 for a standard error, got {n_mc}")
    x = np.asarray(x, dtype=np.float64)
    moments = problem.moments(x)
    if moments is None or problem.x_star is None:
        raise AnalysisError("contraction check needs exact moments and a target")
    mean, second = moments
    if not np.all(second > 0):  # NaN fails it too
        raise AnalysisError("contraction check needs strictly positive second moments")
    partition = BlockPartition.singleton(problem.dim)
    d0 = x - problem.x_star
    dist0 = float(np.einsum("i,i->", d0, d0))
    aiming = float(aiming_values(x, d0, dist0, lam, mean, second, partition))
    rng = make_rng(seed, MC_STREAM)
    G = problem.sample_gradients(x, rng, n_mc)
    X1 = conceptual_update(x, G, second, alpha, lam, partition)
    diff = X1 - problem.x_star
    dsq = np.einsum("ij,ij->i", diff, diff)
    mc_mean = float(dsq.mean())
    mc_se = float(mc_mean_se(dsq))
    bound = (1.0 - alpha * lam) ** 2 * dist0 + alpha**2 * contraction_noise_bound(
        problem.dim, lam, problem.x_star
    )
    return ContractionCheck(mc_mean, mc_se, bound, aiming, mc_mean <= bound + 3 * mc_se)


# ---------------------------------------------------------------------------
# estimator statistics


def mc_mean_se(samples: np.ndarray) -> np.ndarray:
    """Standard error of the sample mean along axis 0."""
    samples = np.asarray(samples)
    if samples.ndim == 0 or samples.shape[0] < 2:
        raise AnalysisError("a standard error needs at least 2 samples")
    return samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])


def mc_variance_se(samples: np.ndarray) -> np.ndarray:
    """Standard error of the sample variance along axis 0, from the fourth
    central moment: Var(s^2) ~ (mu4 - sigma^4)/n."""
    samples = np.asarray(samples)
    if samples.ndim == 0 or samples.shape[0] < 2:
        raise AnalysisError("a standard error needs at least 2 samples")
    n = samples.shape[0]
    squares = np.square(samples - samples.mean(axis=0))
    # samples.var(axis=0, ddof=1) bit for bit: numpy's _var does this very sum
    s2 = np.sum(squares, axis=0) / (n - 1)
    mu4 = np.mean(np.square(squares, out=squares), axis=0)  # no pow
    return np.sqrt(np.maximum(mu4 - s2**2, 0.0) / n)


@dataclass(frozen=True)
class EstimatorStats:
    """Monte Carlo diagnostics of a second-moment estimator on a partition
    of n coordinates into m blocks: mean_d, snr_d, snr_v and corr_dv are per
    coordinate (snr_v and corr_dv pair each with its block's estimate), and
    bias, variance, mean_v and exact_second_moment per block. ``v_draws``
    holds the (n_mc, m) sampled estimates they reduce, so a record holds
    n_mc x m floats until dropped (320 KB for SIGMA_N_MC draws at m = 4)."""

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
    n_mc: int = 0
    v_draws: np.ndarray | None = None


def estimator_stats(
    problem: StochasticProblem,
    x: np.ndarray,
    state: OptimizerState,
    config: OptimizerConfig,
    n_mc: int,
    seed: int = 0,
    key: tuple[int, ...] = (),
    partition: BlockPartition | None = None,
) -> EstimatorStats:
    """Freeze the optimizer state, draw n_mc fresh gradients at x from
    make_rng(seed, MC_STREAM, *key), and measure the bias, variance, SNRs and
    direction correlation of the estimate the next step on ``partition``
    (singleton by default) would divide by, one per block. Directions and
    estimates come from ``optim.propose``, which ``step`` runs, on slices of
    _PIECE // n draws, into one (n_mc, n) direction array (the draws, when
    the step follows the gradient) and one (n_mc, m) estimate array, which
    ``v_draws`` holds; the statistics reduce them whole. On singleton blocks
    a call holds three (n_mc, n) arrays plus slices. The bias reference, the
    block sums of E[d^2], is exact, from the oracle of the step's direction."""
    if n_mc < 10**4:
        raise AnalysisError(f"n_mc must be >= 1e4 for stable estimates, got {n_mc}")
    if partition is None:
        partition = BlockPartition.singleton(problem.dim)
    if partition.total_dim != problem.dim:
        raise ShapeError(f"partition dim {partition.total_dim} != problem dim {problem.dim}")
    for name, arr, size in (("m", state.m, problem.dim), ("v", state.v, partition.num_blocks)):
        if arr is not None and np.asarray(arr).shape != (size,):
            raise ShapeError(f"state.{name} must have length {size}")
    alg = config.algorithm
    spec = ALGORITHMS[alg]
    if spec.estimate is None:
        raise AnalysisError(f"{alg} uses exact moments; it has no estimator")
    primed = state.t > 0 and all(getattr(state, name) is not None for name in spec.state)
    if not primed and (state.t > 0 or spec.direction == "momentum"):
        raise AnalysisError(f"{alg} estimator stats need a primed state holding {spec.state}")
    eps = config.epsilon
    x = np.asarray(x, dtype=np.float64)
    moments = _direction_moments(problem, config, x, state.m, partition)
    if moments is None:
        raise AnalysisError("estimator stats need a problem with exact moments")
    exact_d2 = moments[1]
    if spec.direction == "momentum" and config.bias_correction == "zero_init_rescale":
        # the step divides the corrected momentum m/c1
        exact_d2 = exact_d2 / (1.0 - config.beta1 ** (state.t + 1)) ** 2
    if not np.all(exact_d2 > 0):  # NaN fails it too
        raise AnalysisError("estimator stats need E[d^2] > 0 on every block")
    G = problem.sample_gradients(x, make_rng(seed, MC_STREAM, *key), n_mc)
    if config.fold_lambda:
        G += config.fold_lambda * x
    d = G if spec.direction == "gradient" else np.empty_like(G)
    v = np.empty((n_mc, partition.num_blocks))
    rows = max(1, _PIECE // problem.dim)
    for a in range(0, n_mc, rows):
        d[a:a + rows], v[a:a + rows] = propose(config, state, G[a:a + rows], partition)[:2]
    del G

    mean_d = d.mean(axis=0)
    var_d = d.var(axis=0, ddof=1)
    mean_v = v.mean(axis=0)
    var_v = v.var(axis=0, ddof=1)
    bias = np.abs(mean_v - exact_d2)
    with np.errstate(divide="ignore"):
        snr_d = np.where(var_d > 0, mean_d**2 / np.where(var_d > 0, var_d, 1.0), np.inf)
        snr_v = partition.expand(
            np.where(var_v > 0, (mean_v + eps) ** 2 / np.where(var_v > 0, var_v, 1.0), np.inf))
    d -= mean_d
    cov = np.einsum("ij,ij->j", d, partition.expand(v - mean_v)) / (n_mc - 1)
    denom = np.sqrt(var_d * partition.expand(var_v))
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
        n_mc=n_mc,
        v_draws=v,
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
    if not lam > 0:  # NaN fails it too
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


def _tree_sum(piece, lo: int, n: int):
    """np.sum of the n floats piece(lo, lo + n) would return, bit for bit,
    from leaves piece(a, b) of at most _PIECE floats: numpy's pairwise sum
    splits n > 128 floats at n // 2 rounded down to a multiple of 8."""
    if n <= _PIECE:
        return np.sum(piece(lo, lo + n))
    half = n // 2 - n // 2 % 8
    return _tree_sum(piece, lo, half) + _tree_sum(piece, lo + half, n - half)


def _ratio_row(dist: RatioDistribution, s: float, rng: np.random.Generator, Z: np.ndarray,
               work: np.ndarray) -> RatioExpansionRow:
    """One scale of the expansion check in Z, ``work`` and a piece. The draws
    W from rng become Z; Y is built in ``work``, its noise V drawn a piece at
    a time, which continues the stream as one draw would. Var(Z) (numpy's
    _var: centre, square, sum, divide) and the mean of Y/sqrt(Z) are
    _tree_sum's of pieces, so only the covariance reads whole arrays."""
    n = len(Z)
    buf = np.empty(min(_PIECE, n))
    rng.standard_normal(out=Z)
    np.multiply(Z, s, out=Z)
    np.subtract(Z, 0.5 * s * s, out=Z)
    np.exp(Z, out=Z)
    np.multiply(Z, dist.z_mean, out=Z)
    # a NaN minimum passes here and shows as a NaN residual, which fails its check
    if Z.min() <= 0:
        raise AnalysisError("Z must stay strictly positive")
    mz = float(Z.mean())
    vz = float(_tree_sum(lambda a, b: np.square(np.subtract(Z[a:b], mz, out=buf[: b - a]),
                                                out=buf[: b - a]), 0, n) / (n - 1))
    Y = np.subtract(Z, dist.z_mean, out=work)
    np.multiply(Y, dist.coupling, out=Y)
    np.add(Y, dist.y_mean, out=Y)
    for a in range(0, n, len(buf)):
        noise = rng.standard_normal(out=buf[: min(len(buf), n - a)])
        Y[a:a + len(noise)] += np.multiply(noise, dist.y_noise * s, out=noise)
    mc = float(_tree_sum(lambda a, b: np.divide(Y[a:b], np.sqrt(Z[a:b], out=buf[: b - a]),
                                                out=buf[: b - a]), 0, n) / n)
    my = float(Y.mean())
    Y -= my
    Z -= mz
    cov = float(np.einsum("i,i->", Y, Z) / (n - 1))
    expansion = my / math.sqrt(mz) * (1.0 - cov / (2 * my * mz) + 3.0 * vz / (8 * mz * mz))
    return RatioExpansionRow(s, mc, expansion, abs(mc - expansion))


def verify_ratio_expansion(
    dist: RatioDistribution = RatioDistribution(),
    n_mc: int = 10**6,
    noise_scales=(0.5, 0.25, 0.125),
    seed: int = 11,
) -> tuple[CheckResult, ...]:
    """Check E[Y/sqrt(Z)] against the three-term expansion
    E[Y]/sqrt(E[Z]) * (1 - Cov(Y,Z)/(2 E[Y] E[Z]) + 3 Var(Z)/(8 E[Z]^2)),
    one check per pair of consecutive noise scales.

    The residual must shrink at least quadratically as the noise scale drops
    (consecutive-scale ratio at least (s_i/s_{i+1})^2 up to a factor of 2);
    a non-finite residual fails its check, and each scale must be finite and
    > 0. The same underlying normal draws serve every scale, which makes the
    ratios stable: each scale redraws them from the fixed seed into its work
    buffers rather than keep them, so the footprint is two arrays of n_mc
    floats and a piece (15.5 MiB traced at the default 1e6). The means and
    the variance are pairwise sums taken a piece at a time by _tree_sum; the
    covariance is one ``np.einsum`` sum of products over whole arrays, which
    runs numpy's own loop, not a BLAS dot, whose last bits depend on the
    BLAS kernel.
    """
    scales = [float(s) for s in noise_scales]
    if not all(math.isfinite(s) and s > 0 for s in scales):
        raise AnalysisError(f"noise_scales must be finite and > 0, got {tuple(scales)}")
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise AnalysisError("noise_scales must be strictly decreasing")
    if n_mc < 2:
        raise AnalysisError(f"n_mc must be >= 2 for a sample variance, got {n_mc}")
    Z, work = np.empty(n_mc), np.empty(n_mc)
    rows = [_ratio_row(dist, s, make_rng(seed, MC_STREAM), Z, work) for s in scales]
    checks = []
    for a, b in zip(rows, rows[1:]):
        expected = (a.scale / b.scale) ** 2
        if not (math.isfinite(a.residual) and math.isfinite(b.residual)):
            observed = math.nan  # fails the comparison below
        else:
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
    return tuple(checks)


# ---------------------------------------------------------------------------
# deterministic decay recursions


_CHUNK = 10**6  # steps per chunk of a decay scan, the unit a thread takes


def _decay_chunk(chunk) -> tuple[float, float]:
    """The total decay exp(L[-1]) and drive-weighted sum np.sum(L) of one
    chunk (coeff, drive, lo, hi) of X_{t+1} = coeff(t) X_t + drive(t),
    t = lo..hi-1, with L its log-cumsum. Neither depends on the iterate, so
    chunks run on any thread in any order; only their fold is sequential.

    ``coeff(t, out)`` and ``drive(t, out)`` write into ``out`` and return
    it (drive is handed t itself). Only L spans the chunk; its one pairwise
    ``np.sum`` fixes the bytes. t, the coefficients and the drive are made
    in pieces of _PIECE steps, the cumsum carried from piece to piece, and
    each piece's t is its start + offsets, equal to np.arange bit for bit,
    so every float operation and its order match whole-chunk arrays."""
    coeff, drive, lo, hi = chunk
    n = hi - lo
    L = np.empty(n)
    offsets = np.arange(min(_PIECE, n), dtype=np.float64)
    t_buf = np.empty_like(offsets)
    pieces = [(a, min(a + len(offsets), n)) for a in range(0, n, len(offsets))]
    for a, b in pieces:
        t = np.add(offsets[: b - a], lo + a, out=t_buf[: b - a])
        c = coeff(t, L[a:b])
        # min and max propagate NaN, which fails both comparisons
        if not (c.min() > 0 and c.max() < 1):
            raise AnalysisError("recursion coefficients must lie in (0, 1); raise t0")
        np.log(c, out=L[a:b])
        if a:
            L[a] += L[a - 1]
        np.cumsum(L[a:b], out=L[a:b])
    last = L[n - 1]
    for a, b in pieces:
        t = np.add(offsets[: b - a], lo + a, out=t_buf[: b - a])
        d = drive(t, t)
        # the weight exp(L[-1] - L) of each drive term, in place
        w = np.subtract(last, L[a:b], out=L[a:b])
        np.exp(w, out=w)
        w *= d
    return np.exp(last), np.sum(L)


def _fold_decay(parts, x0: float) -> tuple[float, float]:
    """The driven and undriven iterates from x0 after chunks' (decay, sum)."""
    x = undriven = float(x0)
    for decay, s in parts:
        x = float(decay * x + s)
        undriven = float(decay * undriven)
    return x, undriven


def _scan_decay(coeff, drive, t0: int, T: int, x0: float,
                chunk: int = _CHUNK) -> tuple[float, float]:
    """Final values of X_{t+1} = coeff(t) X_t + drive(t), t = t0..T-1, and of
    the same recursion with no drive, via a chunked closed form (log-cumsum)
    exact to float64: ``_fold_decay`` of ``_decay_chunk`` over its chunks."""
    return _fold_decay((_decay_chunk((coeff, drive, lo, min(lo + chunk, T)))
                        for lo in range(t0, T, chunk)), x0)


def _harmonic_form(a, p, b):
    """Form 1 as (name, start, coeff, drive, scaling exponent, limit)."""
    return (f"harmonic_decay_a{a:g}_p{p:g}_b{b:g}", int(math.floor(a)) + 1,
            lambda t, out: np.subtract(1.0, np.divide(a, t, out=out), out=out),
            lambda t, out: np.divide(b, np.power(t, p + 1.0, out=out), out=out),
            p, b / (a - p))


def _power_form(a, p, q, b):
    """Form 2 as (name, start, coeff, drive, scaling exponent, limit)."""
    return (f"power_decay_a{a:g}_p{p:g}_q{q:g}_b{b:g}", int(math.ceil(a ** (1.0 / p))) + 1,
            lambda t, out: np.subtract(1.0, np.divide(a, np.power(t, p, out=out), out=out),
                                       out=out),
            lambda t, out: np.divide(b, np.power(t, q, out=out), out=out),
            q - p, b / a)


_DECAY_FORMS = (_harmonic_form(2.0, 1.0, 1.0), _power_form(1.0, 0.6, 1.35, 1.0),
                _power_form(2.0, 0.75, 1.5, 1.0))


def _decay_chunks(T: int) -> list[tuple]:
    """verify_chung_recursions' chunks up to T in fold order (3 x 10 at 1e7)."""
    latest = max(form[1] for form in _DECAY_FORMS)
    if T <= latest:
        raise AnalysisError(f"T must exceed every recursion's start, the latest being "
                            f"{latest}; got T = {T}")
    return [(coeff, drive, lo, min(lo + _CHUNK, T))
            for _, t0, coeff, drive, _, _ in _DECAY_FORMS for lo in range(t0, T, _CHUNK)]


def verify_chung_recursions(T: int = 10**7, map=map) -> tuple[CheckResult, ...]:
    """Iterate the two classical decay recursions to a long horizon and check
    the scaled iterates settle at their predicted limits, within 1%.

    Form 1: X_{t+1} = (1 - a/t) X_t + b/t^(p+1) with a > p > 0 has
    t^p X_t -> b/(a-p). Form 2: X_{t+1} = (1 - a/t^p) X_t + b/t^q with
    0 < p < 1 < q has t^(q-p) X_t -> b/a. Parameters are chosen so the
    finite-horizon value sits within the stated tolerance of the limit;
    shallow-decay parameter pairs approach their limit like t^(p-1) and can
    still be 1 or more percent out at t = 1e7.

    The scan folds ``map(_decay_chunk, _decay_chunks(T))`` in order; a map
    that runs the chunks on other threads, in any order, gives the same bytes.
    """
    rel_tol = 1e-2

    def near(name, scaled, bound):
        return CheckResult(name, scaled, bound, f"|observed-bound| <= {rel_tol:g}*bound",
                           abs(scaled - bound) <= rel_tol * bound)

    parts = iter(map(_decay_chunk, _decay_chunks(T)))
    scans = []
    for name, t0, _, _, exponent, limit in _DECAY_FORMS:
        x, undriven = _fold_decay(itertools.islice(parts, len(range(t0, T, _CHUNK))), 1.0)
        scans.append((name, T**exponent * x, T**exponent * undriven, limit))
    (name, scaled, zero_drive, limit), *powers = scans
    return (
        near(name, scaled, limit),
        # with no drive the scaled harmonic iterate decays like 1/t
        CheckResult("harmonic_decay_zero_drive", zero_drive, 10.0 / T,
                    "observed <= 10/T", zero_drive <= 10.0 / T),
        *(near(name, scaled, limit) for name, scaled, _, limit in powers),
    )


# ---------------------------------------------------------------------------
# the verify catalog


def _gaussian_square_variance(mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Var(X^2) for X ~ N(mu, sd^2): 4 mu^2 sd^2 + 2 sd^4."""
    return 4.0 * mu**2 * sd**2 + 2.0 * sd**4


def _estimator_catalog() -> tuple[CheckResult, ...]:
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

    def mean_se(stats):  # mc_mean_se(stats.v_draws) bit for bit: std is sqrt(var)
        return np.sqrt(stats.variance) / math.sqrt(n_mc)

    # EMA of the squared momentum
    opt = OptimizerConfig("bcos_m", beta1=beta1, beta2=beta2, epsilon=1e-6)
    stats = estimator_stats(problem, x, state_mv, opt, n_mc, seed=101)
    mu_m = beta1 * m_prev + (1 - beta1) * mu_g
    sd_m = (1 - beta1) * sd_g
    expected = (1 - beta2) ** 2 * _gaussian_square_variance(mu_m, sd_m)
    within_3se("ema_variance_dev_se", stats.variance, expected, mc_variance_se(stats.v_draws))
    del stats  # its v_draws, 2.3 MiB, would stay alive while the next check draws

    # the squared-gradient EMA paired with a momentum direction
    opt = OptimizerConfig("adam", beta1=beta1, beta2=beta2, epsilon=1e-6)
    stats = estimator_stats(problem, x, state_mv, opt, n_mc, seed=102)
    expected = (1 - beta2) ** 2 * _gaussian_square_variance(mu_g, sd_g)
    within_3se("adam_variance_dev_se", stats.variance, expected, mc_variance_se(stats.v_draws))
    del stats

    # conditional estimator: variance and signed bias
    opt = OptimizerConfig("bcos_c", beta1=beta1, epsilon=1e-6)
    stats = estimator_stats(problem, x, state_m, opt, n_mc, seed=103)
    expected = (1 - beta1) ** 4 * _gaussian_square_variance(mu_g, sd_g)
    within_3se("conditional_variance_dev_se", stats.variance, expected,
               mc_variance_se(stats.v_draws))
    bias_expected = 2 * beta1 * (1 - beta1) * m_prev * (m_prev - mu_g)
    signed = stats.mean_v - stats.exact_second_moment
    within_3se("conditional_bias_dev_se", signed, bias_expected, mean_se(stats))
    del stats

    # sign mode: v = d^2 is unbiased
    opt = OptimizerConfig("sign_sgd", beta1=0.0, epsilon=0.0)
    stats = estimator_stats(problem, x, OptimizerState(), opt, n_mc, seed=104)
    within_3se("sign_bias_dev_se", stats.mean_v, stats.exact_second_moment, mean_se(stats))
    del stats

    # constant estimator: exactly zero variance
    opt = OptimizerConfig("sgd", beta1=0.0, epsilon=0.0)
    stats = estimator_stats(problem, x, OptimizerState(), opt, n_mc, seed=105)
    obs = float(np.max(stats.variance))
    checks.append(CheckResult("constant_variance_zero", obs, 0.0, "exact", obs == 0.0))
    return tuple(checks)


def counterexample_log_checks(report: problems.CounterexampleReport) -> tuple[CheckResult, ...]:
    """The log example's checks, the one verdict of verify and counterexamples
    alike; each check is judged from the value it prints."""
    min_inner = min(r.inner_product for r in report.rows)
    max_curv = max(r.curvature_witness for r in report.rows)
    return (
        CheckResult("log_aiming_min_inner", min_inner, 0.0, "observed >= 0", min_inner >= 0.0),
        CheckResult("log_concavity_max_second_derivative", max_curv, 0.0,
                    "observed < 0", max_curv < 0.0),
    )


def counterexample_quadratic_checks(quad: dict) -> tuple[CheckResult, ...]:
    """The quadratic's checks, as counterexample_log_checks."""
    eig_err = float(np.max(np.abs(quad["eigenvalues"] - np.array([0.0, 5.0]))))
    return (
        CheckResult("quadratic_aiming_value", quad["aiming_value"], -0.5,
                    "exact equality", quad["aiming_value"] == -0.5),
        CheckResult("quadratic_eigenvalues_dev", eig_err, 1e-12,
                    "abs dev <= 1e-12", eig_err <= 1e-12),
        CheckResult("quadratic_psd", float(quad["psd_certified"]), 1.0, "certified",
                    quad["psd_certified"]),
    )


# verify's sections in print order: (name, placement, run). A run looks its
# function up when called, so a patched or traced one is what runs.
VERIFY_SECTIONS = (
    ("counterexample_log_aiming", "beside",
     lambda: counterexample_log_checks(problems.counterexample_log_aiming())),
    ("counterexample_quadratic_not_aiming", "beside",
     lambda: counterexample_quadratic_checks(problems.counterexample_quadratic_not_aiming())),
    ("chung_recursions", "chunks", lambda map: verify_chung_recursions(10**7, map=map)),
    ("ratio_expansion", "alone", lambda: verify_ratio_expansion()),
    ("estimator_catalog", "beside", lambda: _estimator_catalog()),
)


def verify_sections() -> list[tuple[str, tuple[CheckResult, ...]]]:
    """(name, checks) of each row of VERIFY_SECTIONS, in table order. The
    "alone" rows run first, then the "beside" rows while a one-worker pool
    takes the 30 decay chunks from the front, then the "chunks" row, whose
    map runs here, from the back, each chunk not yet started (numpy releases
    the GIL). Each chunk runs in a copy of the caller's context (its
    np.errstate included) and its error is raised in the fold; an error here
    cancels the chunks not yet started. The checks are the bytes of one
    section after another."""
    # imported here: a module import would add to every command's start-up
    from concurrent.futures import ThreadPoolExecutor

    done = {name: run() for name, placement, run in VERIFY_SECTIONS if placement == "alone"}
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        started = {chunk: pool.submit(contextvars.copy_context().run, _decay_chunk, chunk)
                   for chunk in _decay_chunks(10**7)}
        done.update((name, run()) for name, placement, run in VERIFY_SECTIONS
                    if placement == "beside")

        def from_the_back(fn, chunks):
            ran = {chunk: fn(chunk) for chunk in reversed(chunks) if started[chunk].cancel()}
            return [ran[chunk] if chunk in ran else started[chunk].result() for chunk in chunks]

        done.update((name, run(from_the_back)) for name, placement, run in VERIFY_SECTIONS
                    if placement == "chunks")
    finally:
        pool.shutdown(cancel_futures=True)
    return [(name, done[name]) for name, _, _ in VERIFY_SECTIONS]
