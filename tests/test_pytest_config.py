"""The suite's pytest configuration, run on a probe file in a child pytest.

`filterwarnings` turns every warning into an error. On a failing `@given`
test, hypothesis's pytest plugin imports libcst, which warns that
`mypy_extensions.TypedDict` is deprecated. Unless that warning is ignored,
it aborts the whole run with INTERNALERROR at the first such failure: the
tests after it do not run, and no summary is printed.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
