"""The golden corpus under tests/golden/, byte for byte: CLI runs and a
sweep with their manifests, ``counterexamples`` output, a block-partition
library curve, the loss curve of a logistic run and the ``trace_rows`` text
of every practical algorithm. tests/golden/regenerate.py produces the
files. The corpus pins this toolchain: a mismatch names the first
differing file, line and column, numpy's version and the CPU model, since
the streams come from numpy's generators and the last bits of BLAS dots
and exp/log can depend on the SIMD path."""

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


def cpu_model() -> str:
    """The first ``model name`` of /proc/cpuinfo, or "unknown"."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def assert_golden(name: str, produced: str) -> None:
    """Fail at the first character where ``produced`` differs from the
    committed corpus file ``name``."""
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        expected = fh.read().decode("utf-8")
    if produced != expected:
        line, column = first_difference(expected, produced)
        pytest.fail(f"{name} differs first at line {line}, column {column} "
                    f"(numpy {np.__version__}, CPU {cpu_model()})")


def test_corpus_is_byte_identical():
    produced = regenerate.corpus()
    # verify.txt is compared inside tests/test_cli.py's verify run
    assert sorted([*produced, regenerate.VERIFY]) == committed_files()
    # the manifests last: a data file's own first difference says more than
    # the hash line that records it
    for name in sorted(produced, key=lambda name: (name.endswith("manifest.txt"), name)):
        assert_golden(name, produced[name])
