"""The golden corpus under tests/golden/, byte for byte: CLI runs and a
sweep with their manifests, ``counterexamples`` output, a block-partition
library curve, the loss curve of a logistic run and the ``trace_rows`` text
of every practical algorithm. tests/golden/regenerate.py produces the
files. No corpus byte goes through a BLAS or LAPACK call, so the bytes do
not depend on the BLAS kernel. They still pin numpy: the streams come from
its generators, and the last bits of exp and log can depend on its SIMD
path. ``verify.txt`` also holds the ratio expansion's one BLAS dot, which
gave the same bytes on every kernel tried. A mismatch names the first
differing file, line and column, numpy's version and the CPU model."""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bcoslab

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


def assert_corpus(produced: dict[str, str]) -> None:
    """Fail unless ``produced`` holds every committed corpus file, byte for
    byte, and no other."""
    # verify.txt is compared inside tests/test_cli.py's verify run
    assert sorted([*produced, regenerate.VERIFY]) == committed_files()
    # the manifests last: a data file's own first difference says more than
    # the hash line that records it
    for name in sorted(produced, key=lambda name: (name.endswith("manifest.txt"), name)):
        assert_golden(name, produced[name])


def test_corpus_is_byte_identical():
    assert_corpus(regenerate.corpus())


def test_corpus_does_not_depend_on_the_blas_kernel(tmp_path):
    """The corpus made in a process whose OpenBLAS runs its Haswell kernels,
    the ones most AMD CPUs and Intel CPUs without AVX-512 pick, equals the
    committed files. OPENBLAS_CORETYPE picks the kernel of an OpenBLAS built
    with DYNAMIC_ARCH, as numpy's wheels are; any other BLAS ignores it, and
    this test then repeats the one above in a fresh process."""
    out = tmp_path / "corpus.json"
    script = ("import json, pathlib, runpy, sys; "
              "corpus = runpy.run_path(sys.argv[1])['corpus']; "
              "pathlib.Path(sys.argv[2]).write_text(json.dumps(corpus()), encoding='utf-8')")
    src = os.path.dirname(os.path.dirname(os.path.abspath(bcoslab.__file__)))
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", script, os.path.join(GOLDEN, "regenerate.py"),
                    str(out)], env=env, check=True, capture_output=True)
    assert_corpus(json.loads(out.read_text(encoding="utf-8")))
