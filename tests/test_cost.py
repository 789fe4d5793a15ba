"""Cost gates: the peak memory that one CLI op allocates, held to written ceilings.

Each case runs in a fresh interpreter: one warm-up op, then `tracemalloc`
started, then the same op again, writing its report through `--out` as the
benchmark does. The traced peak of that second op was the same to the byte
in repeated fresh processes, so each ceiling is the measured peak plus 2%.
A regression of a few percent in what an op allocates fails here, where the
benchmark's resident-memory metrics move with heap blocks and import pages.

The rule: lowering a ceiling needs no reason. A change that raises one says
so in CHANGES.md, with the cause.

What these gates cannot see: memory that BLAS allocates for itself, which
does not pass through Python's or numpy's traced allocators; the memory and
time of importing modules, which the warm-up op has paid before tracing
starts; and time of any kind.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import tracemalloc

from chi_jrsp.harness import main

argv = sys.argv[1:]
assert main(argv) == 0
tracemalloc.start()
assert main(argv) == 0
print(tracemalloc.get_traced_memory()[1])
"""

# Command -> ceiling in bytes: the traced peak of one op, measured with numpy 2.4 on x86-64, plus 2%.
CEILINGS = {
    "table --senders 3": 160_065,  # measured 156_927
    "table --senders 5": 10_723_495,  # measured 10_513_231
    "verify --senders 5 --exhaustive --seed 7": 15_814_345,  # measured 15_504_260
}


@pytest.mark.parametrize("command", CEILINGS)
def test_peak_traced_memory_of_one_op(command, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    argv = [*command.split(), "--out", str(tmp_path / "report.out")]
    result = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    peak = int(result.stdout)
    assert peak <= CEILINGS[command], f"{command}: peak {peak} B over the ceiling {CEILINGS[command]} B"
