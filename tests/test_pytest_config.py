"""The suite's warning filters report a failing hypothesis property as an
ordinary failure: the session goes on to the tests after it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_is_an_ordinary_failure(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    # exit status 1 is "tests failed"; an aborted session exits 3
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
