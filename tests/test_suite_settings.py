"""The suite's own pytest settings. ``filterwarnings = ["error"]`` fails the
suite on any leaked warning; these tests pin that it does not also hide a
failing property test behind an INTERNALERROR."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != 0


def test_runs_after():
    pass
'''


def test_failing_property_test_is_reported(tmp_path):
    """A failing @given test makes hypothesis import libcst for its report,
    which warns on import. The run must still end as an ordinary failure
    (exit 1) showing the falsifying example, with later tests run, not as an
    INTERNALERROR (exit 3)."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
