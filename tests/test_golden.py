"""The golden corpus under tests/golden/, byte for byte: CLI runs and a
sweep with their manifests, ``counterexamples`` output, a block-partition
library curve, the loss curve of a logistic run and the ``trace_rows`` text
of every practical algorithm. tests/golden/regenerate.py produces the
files. No corpus byte depends on the BLAS kernel: sums of products,
the ratio expansion's covariance in ``verify.txt`` among them, are
``np.einsum`` without ``optimize``, which runs numpy's own loops. The one
BLAS and LAPACK work is the quadratic counterexample's ``eigvalsh``, ``@``
and ``np.dot`` on a 2 x 2 matrix, whose results are exact on every kernel
tried. The bytes still pin numpy: the streams come from its generators,
and the last bits of exp and log can depend on its SIMD path. A mismatch
names the first differing file, line and column, numpy's version and the
CPU model. The standing mutations show that the corpus catches a
reordered float operation, a permuted seed or a moved default."""

import importlib.util
import json
import os
import shutil
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


def in_check_order(names) -> list[str]:
    """Corpus file names sorted with the manifests last: a data file's own
    first difference says more than the hash line that records it."""
    return sorted(names, key=lambda name: (name.endswith("manifest.txt"), name))


def assert_corpus(produced: dict[str, str]) -> None:
    """Fail unless ``produced`` holds every committed corpus file, byte for
    byte, and no other."""
    # verify.txt is compared inside tests/test_cli.py's verify run
    assert sorted([*produced, regenerate.VERIFY]) == committed_files()
    for name in in_check_order(produced):
        assert_golden(name, produced[name])


def test_corpus_is_byte_identical():
    assert_corpus(regenerate.corpus())


# Regenerates the corpus once per src directory named after the output path,
# in one process, so numpy is imported once: {src: corpus, or the traceback
# of a regeneration that raised}.
_REGENERATE = """\
import json, pathlib, runpy, sys, traceback
results = {}
for src in sys.argv[3:]:
    sys.path.insert(0, src)
    for name in [name for name in sys.modules if name.split(".")[0] == "bcoslab"]:
        del sys.modules[name]
    try:
        results[src] = runpy.run_path(sys.argv[1])["corpus"]()
    except Exception:
        results[src] = traceback.format_exc()
    sys.path.remove(src)
pathlib.Path(sys.argv[2]).write_text(json.dumps(results), encoding="utf-8")
"""
SRC = os.path.dirname(os.path.dirname(os.path.abspath(bcoslab.__file__)))


def subprocess_env(**env) -> dict:
    """The environment of a fresh process that imports bcoslab from SRC,
    with env added."""
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", **env,
            "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def regenerate_in_subprocess(out, srcs: list[str], **env) -> dict:
    """{src: corpus or traceback} of each src directory, regenerated in a
    fresh process with env added to the environment."""
    subprocess.run([sys.executable, "-c", _REGENERATE, os.path.join(GOLDEN, "regenerate.py"),
                    str(out), *srcs], env=subprocess_env(**env), check=True, capture_output=True)
    return json.loads(out.read_text(encoding="utf-8"))


def test_corpus_does_not_depend_on_the_blas_kernel(tmp_path):
    """The corpus made in a process whose OpenBLAS runs its Haswell kernels,
    the ones most AMD CPUs and Intel CPUs without AVX-512 pick, equals the
    committed files. OPENBLAS_CORETYPE picks the kernel of an OpenBLAS built
    with DYNAMIC_ARCH, as numpy's wheels are; any other BLAS ignores it, and
    this test then repeats the one above in a fresh process."""
    corpus = regenerate_in_subprocess(tmp_path / "corpus.json", [SRC],
                                      OPENBLAS_CORETYPE="Haswell")[SRC]
    assert_corpus(corpus)


def test_verify_does_not_depend_on_the_blas_kernel():
    """``bcoslab verify`` under OpenBLAS's Nehalem kernels prints verify.txt
    byte for byte. Those kernels sum a BLAS dot in another order than the
    others, so a covariance taken with np.dot moves in its last bits there."""
    done = subprocess.run([sys.executable, "-m", "bcoslab.cli", "verify"],
                          env=subprocess_env(OPENBLAS_CORETYPE="Nehalem"),
                          check=True, capture_output=True, text=True)
    assert_golden(regenerate.VERIFY, done.stdout)


def test_corpus_does_not_depend_on_numpy_simd(tmp_path):
    """The corpus made with numpy's dispatch to its x86-64-v3 (AVX2),
    x86-64-v4 and later AVX-512 loops switched off, so that its ufuncs run
    the loops an older CPU runs, equals the committed files."""
    corpus = regenerate_in_subprocess(
        tmp_path / "corpus.json", [SRC],
        NPY_DISABLE_CPU_FEATURES="X86_V3,X86_V4,AVX512_ICL,AVX512_SPR")[SRC]
    assert_corpus(corpus)


# name -> (module, anchor, replacement, the first corpus file it changes).
# Each mutation reorders a float operation, permutes the seeds or moves a
# default, changing output bytes but no behaviour a property test sees; the
# corpus is what catches it. The anchor must occur exactly once, so that a
# rewrite which moves the code restates the mutation rather than skip it.
MUTATIONS = {
    "conceptual_update_order": (
        "optim.py",
        "step = np.multiply(alpha, d, out=out)\n    step /= partition.expand(np.sqrt(second))\n",
        "step = np.divide(d, partition.expand(np.sqrt(second)), out=out)\n    step *= alpha\n",
        "run_conceptual_bcos/trajectory.csv"),
    "noise_fill_seed_order": (
        "analysis.py", "noise[:, i] = problem.draw(rng, (width,))",
        "noise[:, S - 1 - i] = problem.draw(rng, (width,))", "curve_blocks.csv"),
    "sigma_stream_key": (
        "analysis.py", "seed=base_seed, key=(t,),", "seed=base_seed, key=(t + 1,),",
        "run_bcos_c/trajectory.csv"),
    "epsilon_default": (
        "optim.py", "epsilon: float = 1e-6", "epsilon: float = 1e-8", "curve_blocks.csv"),
    "momentum_write_back_order": (
        "analysis.py", "M[i] = state.m", "M[S - 1 - i] = state.m",
        "curve_blocks.csv"),
    "diagnostic_row": (
        "analysis.py", "states[0], X[0]", "states[1], X[1]", "run_adam/trajectory.csv"),
}


@pytest.fixture(scope="module")
def mutated(tmp_path_factory):
    """name -> (anchor count, corpus or traceback) of each mutation, and
    "unmutated" -> (1, corpus) of a plain copy of src/."""
    root = tmp_path_factory.mktemp("mutations")
    counts, srcs = {"unmutated": 1}, {}
    for name in ["unmutated", *MUTATIONS]:
        srcs[name] = str(root / name)
        shutil.copytree(SRC, srcs[name], ignore=shutil.ignore_patterns("__pycache__"))
        if name in MUTATIONS:
            module, anchor, replacement, _ = MUTATIONS[name]
            path = os.path.join(srcs[name], "bcoslab", module)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            counts[name] = text.count(anchor)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(anchor, replacement))
    corpora = regenerate_in_subprocess(root / "corpora.json", list(srcs.values()))
    return {name: (counts[name], corpora[src]) for name, src in srcs.items()}


def first_changed_file(produced: dict[str, str]) -> str | None:
    """The first file, in check order, that differs from the committed
    corpus, or None."""
    for name in in_check_order(produced):
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            if produced[name] != fh.read().decode("utf-8"):
                return name
    return None


def test_unmutated_copy_regenerates_the_corpus(mutated):
    """The harness of the mutation test: a plain copy of src/, imported in
    the process that regenerates every mutated copy, gives the corpus."""
    _, corpus = mutated["unmutated"]
    assert isinstance(corpus, dict), corpus
    assert_corpus(corpus)


@pytest.mark.parametrize("name", MUTATIONS)
def test_standing_mutations_fail_the_corpus(mutated, name):
    count, corpus = mutated[name]
    module, anchor, _, expected = MUTATIONS[name]
    assert count == 1, f"{anchor!r} occurs {count} times in {module}; restate the mutation"
    assert isinstance(corpus, dict), corpus
    assert first_changed_file(corpus) == expected
