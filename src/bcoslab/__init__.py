"""Block-coordinate adaptive-stepsize optimizers plus the numerical harness
that verifies their convergence and estimator properties at desk scale."""

from .core import BlockPartition, ParamVector, vector
from .optim import (
    ALGORITHMS,
    MomentOracle,
    OptimizerConfig,
    OptimizerState,
    init_state,
    optimal_stepsizes,
    step,
)
from .schedules import StepSchedule, value_at

__all__ = [
    "ALGORITHMS",
    "BlockPartition",
    "MomentOracle",
    "OptimizerConfig",
    "OptimizerState",
    "ParamVector",
    "StepSchedule",
    "init_state",
    "optimal_stepsizes",
    "step",
    "value_at",
    "vector",
]

__version__ = "0.1.0"
