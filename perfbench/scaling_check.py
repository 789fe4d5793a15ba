"""Check that reference-speed scaling passes a slowdown of the program through.

    python3 perfbench/scaling_check.py --workload sampled5 --seconds 120

worker.py scales each op's wall time by a reference kernel timed right after
the op, in the cache and allocator state the op left behind. If a slower
program also slowed the kernel, the scaling would cancel part of the
regression. This script measures that. It runs one workload's ops in one
process, timed and scaled as worker.py does, in rotating blocks of
BLOCK_OPS ops:

- plain: the program as it is;
- compute: `protocol.measure_in_basis` wrapped, from outside src/, to add
  COMPUTE_CALLS small numpy calls to each call;
- memory: the same wrapper instead copies the input state MEMORY_COPIES
  times, the memory traffic of a program that makes extra copies of its
  register, just before the kernel runs.

Each round runs one block of each kind, a few seconds apart, so a slowdown's
ratio is taken within a round, where the host's speed has had little time to
drift: the median op of the slowed block over the median op of the round's
plain block. For each slowdown the script prints the median of these ratios
over the rounds, unscaled and scaled, and the same ratio of the kernel's
times. The unscaled ratio is the true slowdown; the kernel's ratio shows
directly whether the slowed ops slowed the kernel. The scaling passes the
slowdown through if the scaled ratio's excess over 1 is at least PASS_SHARE
of the unscaled one's; the exit code is 0 only then, and only if every op
passed its correctness check.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time
from pathlib import Path

# Set before numpy is imported, as run.py does for its workers.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

from worker import ReferenceKernel, ScaledClock, _import_package, run_op  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = Path(__file__).resolve().parent / ".work"
BLOCK_OPS = 4
COMPUTE_CALLS = 150
MEMORY_COPIES = 16
PASS_SHARE = 0.75


def _slowed(measure, kind: str):
    small = np.arange(8, dtype=complex)

    def compute(state, qubits, basis):
        for _ in range(COMPUTE_CALLS):
            np.vdot(small, small)
        return measure(state, qubits, basis)

    def memory(state, qubits, basis):
        for _ in range(MEMORY_COPIES):
            state.amps.copy()
        return measure(state, qubits, basis)

    return {"compute": compute, "memory": memory}[kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="sampled5")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=120.0)
    args = parser.parse_args(argv)

    harness, protocol, _, _ = _import_package()
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    out = WORK_DIR / f"scaling-check-{os.getpid()}.out"
    seeds = random.Random(args.seed)
    plain_measure = protocol.measure_in_basis
    kinds = ("plain", "compute", "memory")
    rounds = []  # per round: {kind: {"raw" | "scaled" | "kernel": median over the block}}
    failures = 0

    clock = ScaledClock(ReferenceKernel())
    run_op(harness.main, workload.argv(seeds.randrange(2**31), str(out)), out, workload.check)  # warm-up
    deadline = time.monotonic() + args.seconds
    try:
        while time.monotonic() < deadline or not rounds:
            blocks = {}
            for kind in kinds:
                protocol.measure_in_basis = plain_measure if kind == "plain" else _slowed(plain_measure, kind)
                block = {"raw": [], "scaled": [], "kernel": []}
                for _ in range(BLOCK_OPS):
                    result = run_op(harness.main, workload.argv(seeds.randrange(2**31), str(out)), out, workload.check)
                    failures += result.failure is not None
                    scale = clock.scale()
                    block["raw"].append(result.wall_s)
                    block["scaled"].append(result.wall_s * scale)
                    block["kernel"].append(clock.before)
                blocks[kind] = {k: statistics.median(v) for k, v in block.items()}
            rounds.append(blocks)
    finally:
        protocol.measure_in_basis = plain_measure
        out.unlink(missing_ok=True)

    def ratio(kind: str, key: str) -> float:
        return statistics.median(r[kind][key] / r["plain"][key] for r in rounds)

    plain = {key: statistics.median(r["plain"][key] for r in rounds) for key in ("raw", "scaled", "kernel")}
    print(f"{args.workload}: {len(rounds)} rounds, {len(rounds) * BLOCK_OPS} ops of each kind, {failures} failed")
    print(f"plain: op {plain['raw']:.4f} s unscaled, {plain['scaled']:.4f} s scaled; kernel {plain['kernel']:.5f} s")
    passed = failures == 0
    for kind in kinds[1:]:
        raw_ratio, scaled_ratio = ratio(kind, "raw"), ratio(kind, "scaled")
        share = (scaled_ratio - 1.0) / (raw_ratio - 1.0)
        passed &= share >= PASS_SHARE
        print(
            f"{kind}: op x{raw_ratio:.3f} unscaled, x{scaled_ratio:.3f} scaled "
            f"({share:.0%} of the slowdown kept); kernel x{ratio(kind, 'kernel'):.3f}"
        )
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
