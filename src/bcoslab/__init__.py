"""Block-coordinate adaptive-stepsize optimizers plus the numerical harness
that verifies their convergence and estimator properties at desk scale."""

from .core import BlockPartition
from .optim import (
    ALGORITHMS,
    OptimizerConfig,
    OptimizerState,
    optimal_stepsizes,
    step,
)
from .schedules import StepSchedule, value_at

__all__ = [
    "ALGORITHMS",
    "BlockPartition",
    "OptimizerConfig",
    "OptimizerState",
    "StepSchedule",
    "optimal_stepsizes",
    "step",
    "value_at",
]

__version__ = "0.1.0"
