"""Every name a package module exports resolves, so a deletion cannot leave
a dangling entry in ``__all__``."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["bcoslab", "bcoslab.optim"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
