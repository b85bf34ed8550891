"""Stepsize schedules shared by all optimizers.

A schedule maps the step counter t to a scalar stepsize. The decaying kinds
(inverse_time, power) are the ones the convergence theory cares about; the
warmup kinds mirror common training practice. The conditions the theory puts
on a schedule and the decay lambda together are analysis.rate_preconditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

KINDS = ("constant", "inverse_time", "power", "warmup_cosine", "warmup_linear")


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class StepSchedule:
    kind: str
    alpha: float
    p: float = 0.75
    warmup_steps: int = 0
    total_steps: int = 0
    alpha_min_ratio: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ScheduleError(f"unknown schedule kind {self.kind!r}; expected one of {KINDS}")
        if not 0 < self.alpha < math.inf:
            raise ScheduleError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.kind == "power" and not (0.5 < self.p < 1.0):
            raise ScheduleError(f"power schedule needs 1/2 < p < 1, got p={self.p}")
        if self.kind in ("warmup_cosine", "warmup_linear"):
            if self.warmup_steps < 0:
                raise ScheduleError("warmup_steps must be >= 0")
            if self.total_steps <= self.warmup_steps:
                raise ScheduleError("total_steps must exceed warmup_steps")
            if not (0.0 <= self.alpha_min_ratio <= 1.0):
                raise ScheduleError("alpha_min_ratio must lie in [0, 1]")


def constant(alpha: float) -> StepSchedule:
    return StepSchedule("constant", alpha)


def inverse_time(alpha: float) -> StepSchedule:
    return StepSchedule("inverse_time", alpha)


def power(alpha: float, p: float) -> StepSchedule:
    return StepSchedule("power", alpha, p=p)


def warmup_cosine(alpha: float, warmup_steps: int, total_steps: int,
                  alpha_min_ratio: float = 0.0) -> StepSchedule:
    return StepSchedule("warmup_cosine", alpha, warmup_steps=warmup_steps,
                        total_steps=total_steps, alpha_min_ratio=alpha_min_ratio)


def warmup_linear(alpha: float, warmup_steps: int, total_steps: int,
                  alpha_min_ratio: float = 0.0) -> StepSchedule:
    return StepSchedule("warmup_linear", alpha, warmup_steps=warmup_steps,
                        total_steps=total_steps, alpha_min_ratio=alpha_min_ratio)


def value_at(s: StepSchedule, t: int) -> float:
    """Stepsize at step t >= 0. Past total_steps the warmup kinds clamp to
    their terminal value rather than erroring, mirroring how training loops
    overrun their schedules."""
    if t < 0:
        raise ScheduleError(f"t must be >= 0, got {t}")
    if s.kind == "constant":
        return s.alpha
    if s.kind == "inverse_time":
        return s.alpha / (t + 1)
    if s.kind == "power":
        return s.alpha / (t + 1) ** s.p
    # warmup kinds: linear ramp to the peak, then decay to alpha*alpha_min_ratio
    floor = s.alpha * s.alpha_min_ratio
    if t < s.warmup_steps:
        return s.alpha * (t + 1) / s.warmup_steps
    if t >= s.total_steps:
        return floor
    frac = (t - s.warmup_steps) / (s.total_steps - s.warmup_steps)
    if s.kind == "warmup_cosine":
        return floor + (s.alpha - floor) * 0.5 * (1.0 + math.cos(math.pi * frac))
    return floor + (s.alpha - floor) * (1.0 - frac)
