"""Optimizer step rules: plain SGD and sign baselines, the adaptive
block-coordinate family with EMA and conditional second-moment estimators,
Adam, decoupled weight decay, and the conceptual (exact-moment) update.

All steps are functional on plain float64 arrays: they take (config, state,
x, g, alpha, partition) and return a fresh (x, state) pair, so trajectories
can be replayed and compared bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import BlockPartition, NonFiniteError, ShapeError

EPSILON_PLACEMENTS = ("outside_sqrt", "inside_sqrt")
BIAS_CORRECTIONS = ("init_first_sample", "zero_init_rescale")


class OptimizerError(ValueError):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str
    beta1: float = 0.9
    beta2: float = 0.99
    epsilon: float = 1e-6
    epsilon_placement: str = "outside_sqrt"
    weight_decay_lambda: float = 0.0
    decoupled: bool = False
    bias_correction: str = "init_first_sample"
    # Optional richer conditional estimator for bcos_c (keeps the momentum
    # cross term instead of folding it into the previous momentum square).
    conditional_full: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise OptimizerError(f"unknown algorithm {self.algorithm!r}")
        if not (0.0 <= self.beta1 < 1.0):
            raise OptimizerError(f"beta1 must lie in [0, 1), got {self.beta1}")
        if not (0.0 <= self.beta2 < 1.0):
            raise OptimizerError(f"beta2 must lie in [0, 1), got {self.beta2}")
        if not 0.0 <= self.epsilon < np.inf:
            raise OptimizerError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.epsilon_placement not in EPSILON_PLACEMENTS:
            raise OptimizerError(f"unknown epsilon_placement {self.epsilon_placement!r}")
        if self.bias_correction not in BIAS_CORRECTIONS:
            raise OptimizerError(f"unknown bias_correction {self.bias_correction!r}")
        if not 0.0 <= self.weight_decay_lambda < np.inf:
            raise OptimizerError(
                f"weight_decay_lambda must be finite and >= 0, got {self.weight_decay_lambda}")
        if self.conditional_full and self.algorithm != "bcos_c":
            raise OptimizerError("conditional_full only applies to bcos_c")

    @property
    def fold_lambda(self) -> float:
        """The lambda of coupled decay, which adds lambda*x to the gradient;
        0 when decay is decoupled."""
        return 0.0 if self.decoupled else self.weight_decay_lambda

    @property
    def decay_lambda(self) -> float:
        """The lambda of decoupled decay, which shrinks the iterate by
        (1 - alpha*lambda) before the step; 0 when decay is coupled."""
        return self.weight_decay_lambda if self.decoupled else 0.0


@dataclass(frozen=True)
class OptimizerState:
    """Persistent per-optimizer state.

    ``t`` counts the steps taken; a state with t = 0 is unprimed. ``m`` is a
    per-coordinate momentum vector, ``v`` a per-block second-moment estimate;
    either is None when the algorithm does not store it (bcos_c in particular
    keeps no ``v`` between steps).
    """

    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self):
        if self.v is not None and (np.asarray(self.v) < 0).any():
            raise OptimizerError("second-moment state must be nonnegative")


def _check_inputs(x: np.ndarray, g: np.ndarray, partition: BlockPartition) -> None:
    n = partition.total_dim
    for name, a in (("parameter", x), ("gradient", g)):
        if a.shape != (n,):
            raise ShapeError(f"{name} shape {a.shape} != ({n},) of the partition")
    if not np.isfinite(g).all():
        raise NonFiniteError("gradient contains NaN/Inf entries")


def _safe_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise num/den with the 0/0 -> 0 convention (only reachable when
    epsilon = 0 and both the direction and its estimate vanish): an entry
    whose denominator is not positive (NaN included) is 0. With every
    denominator positive, the usual case when epsilon > 0, that is a plain
    divide."""
    if den.min(initial=np.inf) > 0:
        return num / den
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _denominator(v_used: np.ndarray, config: OptimizerConfig) -> np.ndarray:
    if config.epsilon_placement == "outside_sqrt":
        return np.sqrt(v_used) + config.epsilon
    return np.sqrt(v_used + config.epsilon)


# ---------------------------------------------------------------------------
# the algorithm table


class StepInputs(NamedTuple):
    """What an estimate sees: the step count before the step, the gradient
    (coupled decay folded in), the direction to normalize and the previous
    state; arrays are (..., n) or (..., m), so batch axes broadcast."""

    t: int
    partition: BlockPartition
    g: np.ndarray
    direction: np.ndarray
    m_prev: np.ndarray | None
    v_prev: np.ndarray | None


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm: the vectors it keeps (``m``, ``v``), whether it steps
    along the ``gradient`` or the ``momentum``, and how it normalizes that
    direction: ``plain``, ``sign``, or ``sqrt`` (divide by the root of the
    estimate). ``estimate(config, inputs)`` returns (estimate, v to store);
    plain steps pair with the constant 1 and sign steps with d^2, as
    sign(d) = d/sqrt(d^2). The conceptual method uses the exact moment."""

    state: tuple[str, ...]
    direction: str
    normalize: str
    estimate: Callable[[OptimizerConfig, StepInputs], tuple] | None


def _rescaled(config: OptimizerConfig, value: np.ndarray, beta: float, t: int) -> np.ndarray:
    """Zero-init bias correction of an EMA after t+1 updates."""
    if config.bias_correction == "zero_init_rescale":
        return value / (1.0 - beta ** (t + 1))
    return value


def _ema(config: OptimizerConfig, s: StepInputs, beta: float, u: np.ndarray) -> tuple:
    """EMA of the per-block squared norm of u."""
    v = beta * s.v_prev + (1.0 - beta) * s.partition.block_sums(u * u)
    return _rescaled(config, v, beta, s.t), v


def _conditional(config: OptimizerConfig, s: StepInputs) -> tuple:
    """The conditional estimator: the previous momentum (read before the
    momentum update) combined with the fresh gradient, so no v is stored."""
    b1, t, part = config.beta1, s.t, s.partition
    one_minus = 1.0 - b1
    beta_eff = 1.0 - one_minus**2
    m_prev, mass = s.m_prev, 1.0
    if config.bias_correction == "zero_init_rescale":
        # combine corrected quantities; with no history yet the missing
        # momentum weight renormalizes away
        m_prev = m_prev / (1.0 - b1**t) if t > 0 else m_prev
        mass = (beta_eff if t > 0 else 0.0) + one_minus**2
    if config.conditional_full:
        v_t = (
            b1**2 * part.block_sums(m_prev * m_prev)
            + 2.0 * b1 * one_minus * part.block_sums(m_prev * s.direction)
            + one_minus**2 * part.block_sums(s.g * s.g)
        )
    else:
        v_t = (beta_eff * part.block_sums(m_prev * m_prev)
               + one_minus**2 * part.block_sums(s.g * s.g))
    return (v_t / mass if mass != 1.0 else v_t), None


def _unit(config: OptimizerConfig, s: StepInputs) -> tuple:
    return np.ones_like(s.direction), None


def _own_square(config: OptimizerConfig, s: StepInputs) -> tuple:
    return s.direction * s.direction, None


ALGORITHMS = {
    "sgd": AlgorithmSpec((), "gradient", "plain", _unit),
    "sgd_momentum": AlgorithmSpec(("m",), "momentum", "plain", _unit),
    "sign_sgd": AlgorithmSpec((), "gradient", "sign", _own_square),
    "sign_momentum": AlgorithmSpec(("m",), "momentum", "sign", _own_square),
    # squared-gradient EMA (RMSprop), smoothed with beta1
    "bcos_g": AlgorithmSpec(("v",), "gradient", "sqrt", lambda c, s: _ema(c, s, c.beta1, s.g)),
    # squared-momentum EMA; it tracks the direction the update uses, so under
    # rescaling it averages the corrected momentum square
    "bcos_m": AlgorithmSpec(("m", "v"), "momentum", "sqrt",
                            lambda c, s: _ema(c, s, c.beta2, s.direction)),
    "bcos_c": AlgorithmSpec(("m",), "momentum", "sqrt", _conditional),
    "adam": AlgorithmSpec(("m", "v"), "momentum", "sqrt", lambda c, s: _ema(c, s, c.beta2, s.g)),
    "conceptual_bcos": AlgorithmSpec((), "gradient", "sqrt", None),
}


def momentum_moments(beta1: float, m_prev: np.ndarray, g_mean: np.ndarray,
                     g_second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact conditional moments of the momentum m_t = b*m_{t-1} + (1-b)*g_t,
    given the realized previous momentum and the gradient moments. Expanding
    the square: E[m_t^2] = b^2 m_{t-1}^2 + 2 b (1-b) m_{t-1} E[g_t]
    + (1-b)^2 E[g_t^2], coordinatewise."""
    b = beta1
    mean = b * m_prev + (1.0 - b) * g_mean
    second = (
        b * b * m_prev * m_prev
        + 2.0 * b * (1.0 - b) * m_prev * g_mean
        + (1.0 - b) ** 2 * g_second
    )
    return mean, second


def propose(config: OptimizerConfig, state: OptimizerState, g: np.ndarray,
            partition: BlockPartition) -> tuple:
    """(direction, estimate, m to store, v to store) of one step from
    ``state`` for the gradient g (coupled decay folded in). g may carry
    leading batch axes, one per draw, sharing the state. An unprimed state
    starts from zeros under zero-init rescaling, else from the first sample.
    """
    spec = ALGORITHMS[config.algorithm]
    rescale = config.bias_correction == "zero_init_rescale"
    t = state.t
    m_prev, v_prev = state.m, state.v
    if t == 0:
        if rescale:
            m_prev = np.zeros(partition.total_dim)
            v_prev = np.zeros(partition.num_blocks)
        else:
            m_prev = g
            v_prev = partition.block_sums(g * g) if "v" in spec.state else None
    m_new = None
    direction = g
    if spec.direction == "momentum":
        b1 = config.beta1
        m_new = b1 * m_prev + (1.0 - b1) * g
        direction = _rescaled(config, m_new, b1, t)
    estimate, v_new = spec.estimate(
        config, StepInputs(t, partition, g, direction, m_prev, v_prev)
    )
    return direction, estimate, m_new, v_new


def normalize(config: OptimizerConfig, direction: np.ndarray, estimate: np.ndarray,
              partition: BlockPartition) -> np.ndarray:
    """The update the step subtracts (times alpha) for a direction and its
    second-moment estimate."""
    kind = ALGORITHMS[config.algorithm].normalize
    if kind == "plain":
        return direction
    if kind == "sign":
        return np.sign(direction)
    return _safe_divide(direction, partition.expand(_denominator(estimate, config)))


def step(
    config: OptimizerConfig,
    state: OptimizerState,
    x: np.ndarray,
    g: np.ndarray,
    alpha_t: float,
    partition: BlockPartition,
) -> tuple[np.ndarray, OptimizerState]:
    """One optimizer step from the (n,) iterate x with the (n,) gradient g;
    returns the new iterate, a fresh read-only array, and the new state.

    With decoupled weight decay the iterate is first shrunk by
    (1 - alpha_t*lambda); without it, lambda*x is folded into the gradient
    before any state update. In block mode (fewer blocks than coordinates)
    the second-moment estimate is one scalar per block of ``partition``,
    built from the block squared norm, and that scalar stepsize applies to
    every coordinate of the block.
    """
    if config.algorithm == "conceptual_bcos":
        raise OptimizerError("conceptual_bcos needs exact moments; use conceptual_update")
    if alpha_t < 0:
        raise OptimizerError(f"alpha_t must be >= 0, got {alpha_t}")
    _check_inputs(x, g, partition)
    alpha_lambda = alpha_t * config.decay_lambda
    if alpha_lambda >= 1.0:
        raise OptimizerError(f"decoupled decay needs alpha_t*lambda < 1, got {alpha_lambda}")
    fold = config.fold_lambda
    d = g + fold * x if fold else g

    direction, estimate, m_new, v_new = propose(config, state, d, partition)
    x_new = (1.0 - alpha_lambda) * x - alpha_t * normalize(config, direction, estimate, partition)
    if not np.isfinite(x_new).all():
        raise NonFiniteError(f"{config.algorithm} step produced non-finite parameters")
    x_new.flags.writeable = False
    return x_new, OptimizerState(t=state.t + 1, m=m_new, v=v_new)


def conceptual_update(x: np.ndarray, d: np.ndarray, second: np.ndarray, alpha: float,
                      lam: float, partition: BlockPartition, out=None) -> np.ndarray:
    """x <- (1 - alpha*lambda) x - alpha * d / sqrt(E[d^2]) on raw arrays: the
    sampled directions d (..., n), the per-block second moments of d (..., m)
    and iterates x that broadcast against d. Unchecked: a zero second moment
    gives inf or NaN entries. The result goes into ``out`` when given, an
    array shaped like d that may be d itself but not x; besides it only the
    square roots and the decayed x are allocated."""
    step = np.multiply(alpha, d, out=out)
    step /= partition.expand(np.sqrt(second))
    return np.subtract((1.0 - alpha * lam) * x, step, out=step)


def optimal_stepsizes(x: np.ndarray, x_star: np.ndarray, mean: np.ndarray,
                      second: np.ndarray, partition: BlockPartition) -> np.ndarray:
    """Per-block stepsizes minimizing the expected squared distance of the
    next iterate to the target: <x_k - x*_k, E[d_k]> / E[||d_k||^2], for a
    direction with per-coordinate mean E[d] and per-block second moments
    E[||d_k||^2]. They can be positive or negative. The mean-variance split
    forces each second moment to be at least its squared block mean."""
    if np.any(second <= 0):
        raise OptimizerError("optimal stepsizes need strictly positive second moments")
    if np.any(second < partition.block_sums(mean * mean) * (1.0 - 1e-12) - 1e-300):
        raise OptimizerError("second moment below squared block mean; not a valid moment pair")
    return partition.block_sums((x - x_star) * mean) / second


def trace_rows(
    config: OptimizerConfig,
    x0: np.ndarray,
    gradients: np.ndarray,
    alphas,
    partition: BlockPartition,
) -> list[str]:
    """Replay a fixed gradient stream, stepping with alphas[t] at step t, and
    emit one CSV row per step with the full state (t, x..., m..., v...),
    using round-trip float formatting so two replays can be compared byte
    for byte."""
    x = x0
    state = OptimizerState()
    rows = []

    def fmt(arr, width):
        if arr is None:
            return ["" for _ in range(width)]
        return [repr(float(u)) for u in np.asarray(arr)]

    n = partition.total_dim
    m = partition.num_blocks
    header = (
        ["t"]
        + [f"x{i}" for i in range(n)]
        + [f"m{i}" for i in range(n)]
        + [f"v{k}" for k in range(m)]
    )
    rows.append(",".join(header))
    for t, g in enumerate(np.asarray(gradients, dtype=np.float64)):
        x, state = step(config, state, x, g, float(alphas[t]), partition)
        rows.append(",".join([str(state.t)] + fmt(x, n) + fmt(state.m, n) + fmt(state.v, m)))
    return rows


__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "OptimizerConfig",
    "OptimizerError",
    "OptimizerState",
    "conceptual_update",
    "momentum_moments",
    "normalize",
    "optimal_stepsizes",
    "propose",
    "step",
    "trace_rows",
]
