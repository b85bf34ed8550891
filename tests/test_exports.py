"""The public surface of the package, pinned: every exported name resolves,
so a deletion cannot leave a dangling entry in ``__all__``, and each
``__all__`` equals an explicit set, so adding or removing a public name
takes a visible edit here. No module reads a sibling's private name."""

import ast
import importlib
import pathlib

import pytest

import bcoslab

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


def test_no_module_names_a_siblings_private_name():
    """A private name is read only in the module that defines it: no module
    of the package writes ``sibling._name`` or ``from .sibling import
    _name``."""
    package = pathlib.Path(bcoslab.__file__).parent
    modules = {path.stem: path for path in package.glob("*.py")}
    found = []
    for stem, path in sorted(modules.items()):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules.keys() - {stem}
                    and node.attr.startswith("_") and not node.attr.endswith("__")):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}:{node.lineno} from .{node.module} import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []
