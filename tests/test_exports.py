"""The public surface of the package, pinned: every exported name resolves,
so a deletion cannot leave a dangling entry in ``__all__``, and each
``__all__`` equals an explicit set, so adding or removing a public name
takes a visible edit here."""

import importlib

import pytest

PUBLIC = {
    "bcoslab": {
        "ALGORITHMS", "BlockPartition", "OptimizerConfig", "OptimizerState",
        "StepSchedule", "optimal_stepsizes", "step", "value_at",
    },
    "bcoslab.optim": {
        "ALGORITHMS", "AlgorithmSpec", "OptimizerConfig", "OptimizerError",
        "OptimizerState", "conceptual_update", "momentum_moments", "normalize",
        "optimal_stepsizes", "propose", "step", "trace_rows",
    },
}


@pytest.mark.parametrize("module", ["bcoslab", "bcoslab.optim"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_exports_are_pinned(module):
    names = importlib.import_module(module).__all__
    assert len(names) == len(set(names))
    assert set(names) == PUBLIC[module]
