"""The suite's pytest configuration, run on probe files in a child pytest.

`filterwarnings` turns every warning into an error. On a failing `@given`
test, hypothesis's pytest plugin imports libcst, which warns that
`mypy_extensions.TypedDict` is deprecated. Unless that warning is ignored,
it aborts the whole run with INTERNALERROR at the first such failure: the
tests after it do not run, and no summary is printed. A test's own
`filterwarnings("error")` mark overrides the ignore, so the suite carries
none: the configuration already makes every other warning an error.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
TESTS = Path(__file__).resolve().parent

PROBE = """
import pytest
from hypothesis import given
from hypothesis import strategies as st

{mark}
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""

# The mark that repeats the configuration's `error` rule, as a test would write it.
ERROR_MARK = '@pytest.mark.filterwarnings("error")'


def run_probe(tmp_path, mark):
    (tmp_path / "test_probe.py").write_text(PROBE.format(mark=mark))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    result = run_probe(tmp_path, "")
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


def test_an_error_mark_on_a_failing_property_test_aborts_the_run(tmp_path):
    # The marked case: the mark puts the libcst warning back to an error, and
    # the passing test after the failure never runs.
    result = run_probe(tmp_path, ERROR_MARK)
    assert "INTERNALERROR" in result.stdout + result.stderr
    assert "1 passed" not in result.stdout


def test_no_test_repeats_the_error_rule():
    here = Path(__file__).resolve()
    assert [p.name for p in sorted(TESTS.glob("test_*.py")) if p != here and ERROR_MARK in p.read_text()] == []
