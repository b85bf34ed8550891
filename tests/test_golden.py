"""The golden corpus under tests/golden/, byte for byte: CLI runs and a
sweep with their manifests, a block-partition library curve and the
``trace_rows`` text of every practical algorithm. tests/golden/regenerate.py
produces the files; a mismatch names the first differing file, line and
column, and numpy's version, since the streams come from numpy's generators."""

import importlib.util
import os

import numpy as np
import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", os.path.join(GOLDEN, "regenerate.py"))
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def committed_files() -> list[str]:
    """The corpus files on disk, as paths relative to tests/golden/."""
    names = []
    for root, dirs, files in os.walk(GOLDEN):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for file in files:
            if file != "regenerate.py":
                names.append(os.path.relpath(os.path.join(root, file), GOLDEN).replace(os.sep, "/"))
    return sorted(names)


def first_difference(expected: str, actual: str) -> tuple[int, int]:
    """1-based (line, column) of the first character where the texts differ."""
    pos = next((i for i, (a, b) in enumerate(zip(expected, actual)) if a != b),
               min(len(expected), len(actual)))
    line = expected.count("\n", 0, pos) + 1
    return line, pos - (expected.rfind("\n", 0, pos) + 1) + 1


def test_corpus_is_byte_identical():
    produced = regenerate.corpus()
    assert sorted(produced) == committed_files()
    # the manifests last: a data file's own first difference says more than
    # the hash line that records it
    for name in sorted(produced, key=lambda name: (name.endswith("manifest.txt"), name)):
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            expected = fh.read().decode("utf-8")
        if produced[name] != expected:
            line, column = first_difference(expected, produced[name])
            pytest.fail(f"{name} differs first at line {line}, column {column} "
                        f"(numpy {np.__version__})")
