"""chi-jrsp benchmark: closed-loop CLI campaigns, one client, sequential ops.

    python3 perfbench/run.py --workload exhaustive3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

Each workload runs in PROCS worker processes, one after another, each with
single-threaded BLAS, a set-up of its own and an equal share of the timed
window. Run from anywhere inside a checkout that has `src/chi_jrsp`. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics (--trace 0) or the per-layer metrics
of a traced run (--trace 1). Times are reference-speed seconds: each op's
wall time is scaled by a fixed kernel timed around it (see worker.py). The
exit code is 0 only if every op passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import accumulate, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "chi_jrsp" / "harness.py"
WORK_DIR = HERE / ".work"

# Set-ups per run; setup_s is their median and the op samples are pooled, which
# also evens out process-to-process swings in op time.
PROCS = 4
# Seconds a worker may take beyond its time slice (set-up, warm-up and repeat).
WORKER_GRACE_S = 30.0
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """A worker process crashed or produced no result."""


def _run_worker(name: str, seed: int, seconds: float, trace: int, index: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = WORK_DIR / f"{name}-{os.getpid()}-{index}.out"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
        "--out", str(out), "--started", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} worker {index} exceeded {exc.timeout:.0f} s") from exc
    finally:
        out.unlink(missing_ok=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} worker {index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest op with at least TAIL_BEYOND ops beyond it.

    With too few ops for that, the slowest op and percentile 100.
    """
    ranked = sorted(walls)
    n = len(ranked)
    if n <= TAIL_BEYOND:
        return ranked[-1], 100.0
    return ranked[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in PROCS workers; return its result object and a summary."""
    WORK_DIR.mkdir(exist_ok=True)
    seeds = random.Random(f"{name}:{seed}")
    parts = [
        _run_worker(name, seeds.randrange(2**31), seconds / PROCS, trace, index) for index in range(PROCS)
    ]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    failures: Counter[str] = Counter()
    for p in parts:
        failures.update(p["failures"])
    untraced = [p["untraced"] for p in parts]
    walls = [w for u in untraced for w in u["walls"]]
    raw = [w for u in untraced for w in u["raw"]]  # unscaled
    summary = [f"failed_ops_frac {failed / attempted!r} ({failed} of {attempted} ops)"]
    summary += [f"failure {reason!r}: {count}" for reason, count in sorted(failures.items())]

    if trace:
        traced = [p["traced"] for p in parts]
        traced_walls = [w for t in traced for w in t["walls"]]
        totals: dict = {}
        for p in parts:
            accumulate(totals, p["trace"])
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        metrics = layer_metrics(totals, len(traced_walls), sum(t["branches"] for t in traced), overhead)
        # Unscaled, so that a regression the scaling might hide still shows.
        metrics["wall.op_s.p50"] = {"value": statistics.median(raw), "unit": "s"}
        metrics["wall.op_s.tail"] = {"value": tail(raw)[0], "unit": "s"}
        kernel = [k for p in parts for k in p["kernel_s"]]
        metrics["wall.kernel_s.p50"] = {"value": statistics.median(kernel), "unit": "s"}
        summary.append(f"{len(traced_walls)} traced and {len(walls)} untraced ops")
    else:
        tail_s, tail_pct = tail(walls)
        metrics = {
            "op_s.p50": {"value": statistics.median(walls), "unit": "s"},
            "op_s.tail": {"value": tail_s, "unit": "s"},
            "branches_per_s": {"value": sum(u["branches"] for u in untraced) / sum(walls), "unit": "1/s"},
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in parts), "unit": "MiB"},
            "rss_growth_mb": {"value": max(p["peak_rss_mb"] - p["baseline_rss_mb"] for p in parts), "unit": "MiB"},
            "setup_s": {"value": statistics.median(p["setup_s"] for p in parts), "unit": "s"},
        }
        summary.append(f"op_s.tail is p{tail_pct:.1f} of {len(walls)} timed ops ({PROCS} processes)")
        summary.append(
            f"unscaled wall times: op_s.p50 {statistics.median(raw):.4f} s, op_s.tail {tail(raw)[0]:.4f} s, "
            f"setup_s {statistics.median(p['setup_raw_s'] for p in parts):.4f} s"
        )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="timed window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not PACKAGE.is_file():
        print(f"error: {PACKAGE} not found; run inside a chi-jrsp checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name}\t{metric}\t{m['value']!r}\t{m['unit']}")
        for line in result["summary"]:
            print(f"{name}\t{line}")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{k}": m for name, result in results.items() for k, m in result["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
