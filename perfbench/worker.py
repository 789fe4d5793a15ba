"""One worker process of the benchmark: a closed loop of CLI campaigns.

Started by run.py, once per set-up, with single-threaded BLAS. It imports
chi_jrsp from the checkout's `src/`, runs one warm-up op (part of set-up),
then timed ops one after another until its time slice ends, then repeats the
warm-up op and requires byte-identical output. It prints one JSON object with
its raw samples on stdout; run.py pools the workers and computes the metrics.

Times are reported in reference-speed seconds. The benchmark host's speed
drifts by 30% and more over minutes (other tenants share its cores, caches
and memory), which swamps any change worth detecting. So a fixed numpy
kernel that does not use chi_jrsp is timed between consecutive ops, and each
op's wall time is scaled by REFERENCE_S over the mean of the kernel times
just before and just after it. A slower program raises the scaled time; a
slower host raises both and cancels. Raw wall times are reported alongside,
and scaling_check.py shows that an injected slowdown of the program comes
through the scaling whole.

With --trace 1, even-numbered ops run with the layer wrappers of tracer.py
installed and odd-numbered ops without them, so the tracing overhead is
measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import ROOT, Tracer, accumulate, patched
from workloads import WORKLOADS

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# Nominal time of one ReferenceKernel run, about its time on an idle vCPU of the
# 2-core x86-64 VM (numpy 2.4, Python 3.11) the benchmark was written on.
REFERENCE_S = 0.012


class ReferenceKernel:
    """A fixed mix of small-array numpy calls and passes over 2 MiB arrays.

    Like chi_jrsp, it makes many small 8-dimensional numpy calls and some
    passes over a large register. The weights (about 70% small calls, 30%
    array passes by time) are the ones whose scaled op medians varied least,
    on all three workloads, across 12 rounds of 10 s runs on the benchmark
    host. A kernel dominated by the array passes over-corrected. Its buffers
    are allocated and touched once, before the worker reads its baseline
    resident memory, so they do not count in rss_growth_mb.
    """

    def __init__(self):
        self.small = np.arange(8, dtype=complex)
        self.big = np.ones(1 << 17, dtype=complex)
        self.scaled = np.empty_like(self.big)
        self.magnitude = np.empty(self.big.shape)

    def __call__(self) -> float:
        """Run the kernel once and return its wall time in seconds."""
        start = time.perf_counter()
        acc = 0.0
        for i in range(3000):
            acc += abs(np.vdot(self.small * i, self.small))
        for _ in range(8):
            np.multiply(self.big, 1.0001, out=self.scaled)
            np.abs(self.scaled, out=self.magnitude)
            acc += float(np.dot(self.magnitude, self.magnitude))
        elapsed = time.perf_counter() - start
        if not acc > 0.0:
            raise RuntimeError("reference kernel computed nothing")
        return elapsed


class ScaledClock:
    """Turns op wall times into reference-speed seconds.

    Call scale() right after each op: it times the kernel once and returns
    REFERENCE_S over the mean of that kernel time and the previous one, the
    two kernel runs around the op.
    """

    def __init__(self, kernel: ReferenceKernel):
        self.kernel = kernel
        self.before = kernel()

    def scale(self) -> float:
        after = self.kernel()
        factor = REFERENCE_S / ((self.before + after) / 2.0)
        self.before = after
        return factor


def peak_rss_mb() -> float:
    """This process's peak resident memory so far, in MiB (Linux ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class OpResult:
    wall_s: float
    failure: str | None  # None when the op passed every check
    text: str | None  # the report as written, when there is one


def run_op(call, argv: list[str], out: Path, check) -> OpResult:
    """Time call(argv), one CLI campaign, then check its exit code and report.

    An exception raised out of the CLI is a failed op, recorded by type; it
    does not stop the run.
    """
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        status = call(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        status = exc.code
    except Exception as exc:
        return OpResult(time.perf_counter() - start, f"raised {type(exc).__name__}", None)
    wall = time.perf_counter() - start
    if status != 0:
        return OpResult(wall, f"exit code {status}", None)
    try:
        text = out.read_text()
        reason = check(text)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return OpResult(wall, f"unreadable report: {type(exc).__name__}", None)
    return OpResult(wall, reason, text)


def _import_package():
    sys.path.insert(0, str(SRC_DIR))
    from chi_jrsp import bases, harness, protocol, qstate

    if not Path(harness.__file__).resolve().is_relative_to(SRC_DIR):
        raise SystemExit(f"chi_jrsp was imported from {harness.__file__}, not from {SRC_DIR}")
    return harness, protocol, bases, qstate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of this worker's op seeds")
    parser.add_argument("--seconds", type=float, required=True, help="time slice for timed ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True, help="time.monotonic() when spawned")
    parser.add_argument("--out", type=Path, required=True, help="report path this worker owns")
    args = parser.parse_args(argv)

    modules = _import_package()
    harness = modules[0]
    workload = WORKLOADS[args.workload]
    op_seeds = random.Random(args.seed)
    failures: Counter[str] = Counter()
    attempted = 0

    def attempt(call, seed: int) -> OpResult:
        nonlocal attempted
        attempted += 1
        result = run_op(call, workload.argv(seed, str(args.out)), args.out, workload.check)
        if result.failure is not None:
            failures[result.failure] += 1
        return result

    reference_kernel = ReferenceKernel()
    reference_kernel()
    baseline_rss_mb = peak_rss_mb()
    warm_seed = op_seeds.randrange(2**31)
    warm = attempt(harness.main, warm_seed)
    setup_wall = time.monotonic() - args.started
    setup_s = setup_wall * REFERENCE_S / statistics.median(reference_kernel() for _ in range(3))

    samples = {"untraced": {"walls": [], "raw": [], "branches": 0}, "traced": {"walls": [], "raw": [], "branches": 0}}
    kernel_s = []
    trace_totals: dict = {}
    clock = ScaledClock(reference_kernel)
    deadline = time.monotonic() + args.seconds
    # A traced run needs at least one traced and one untraced op; with
    # --seconds 0 it runs exactly that many.
    min_ops = 2 if args.trace else 1
    i = 0
    while i < min_ops or time.monotonic() < deadline:
        seed = op_seeds.randrange(2**31)
        traced = bool(args.trace) and i % 2 == 0
        if traced:
            tracer = Tracer()
            with patched(tracer, *modules):
                result = attempt(lambda argv: tracer.span(ROOT, harness.main, argv), seed)
        else:
            result = attempt(harness.main, seed)
        scale = clock.scale()
        kernel_s.append(clock.before)
        side = samples["traced" if traced else "untraced"]
        side["walls"].append(result.wall_s * scale)
        side["raw"].append(result.wall_s)
        side["branches"] += workload.branches if result.failure is None else 0
        if traced:
            accumulate(trace_totals, tracer.totals(), scale)
        i += 1

    repeat = attempt(harness.main, warm_seed)
    if repeat.failure is None and warm.text is not None and repeat.text != warm.text:
        failures["output bytes differ on repeat"] += 1
    args.out.unlink(missing_ok=True)

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "setup_raw_s": setup_wall,
                **samples,
                "attempted": attempted,
                "failed": sum(failures.values()),
                "failures": dict(failures),
                "kernel_s": kernel_s,
                "peak_rss_mb": peak_rss_mb(),
                "baseline_rss_mb": baseline_rss_mb,
                "trace": trace_totals,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
