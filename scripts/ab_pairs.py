"""Run the benchmark on two checkouts in alternating pairs, and test a gain claim.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload exhaustive3 \\
        --pairs 10 --seconds 30 --seed-base 900

Pair i runs `perfbench/run.py --workload W --seed B+i --seconds S --trace 0`
once in each checkout, each with its own `perfbench/` and `src/`. Even pairs
run the parent first and odd pairs the change first, so that a drift of the
host's speed over a pair does not favour one side. The script prints each
pair's end-to-end metrics, then for each metric both medians, both sides'
quartiles and the number of pairs the change won, and whether a gain claim
on that metric holds:
- the change wins at least 9 of every 10 pairs, and
- its median beats the parent's by more than the parent's quartile spread
  (upper minus lower quartile, inclusive method).

The direction of each metric ("lower" or "higher" is better) comes from the
`end_to_end` list of `BENCHMARK.json` beside this script. The script imports
nothing from either checkout and writes nothing outside the benchmark's own
work directories. It exits 1 if an op failed in any run.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object that `perfbench/run.py` prints last, run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: no result from {checkout} (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def claim_holds(parent: list[float], change: list[float], lower_is_better: bool) -> tuple[int, bool]:
    """(pairs won by the change, whether the claim rule holds) for one metric."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, q3 = quartiles(parent)
    gap = sign * (statistics.median(parent) - statistics.median(change))
    return wins, wins >= math.ceil(0.9 * len(parent)) and gap > q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)

    better = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    samples: dict[str, dict[str, list[float]]] = {side: {name: [] for name in better} for side in sides}
    failed = 0
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        results = {side: run_bench(sides[side], args.workload, seed, args.seconds) for side in order}
        for side in sides:
            failed += results[side]["failed"]
            for name in better:
                samples[side][name].append(results[side]["metrics"][name]["value"])
        values = "  ".join(
            f"{name} {samples['parent'][name][-1]:.6g} -> {samples['change'][name][-1]:.6g}" for name in better
        )
        print(f"pair {i} seed {seed} ({order[0]} first, failed ops {results['parent']['failed']}"
              f"/{results['change']['failed']}): {values}", flush=True)

    print("metric\tbetter\tparent median\tchange median\tchange %\tparent q1..q3\tchange q1..q3\twins\tclaim holds")
    for name, direction in better.items():
        parent, change = samples["parent"][name], samples["change"][name]
        wins, holds = claim_holds(parent, change, direction == "lower")
        p50, c50 = statistics.median(parent), statistics.median(change)
        pct = 100.0 * (c50 - p50) / p50 if p50 else math.nan
        (pq1, pq3), (cq1, cq3) = quartiles(parent), quartiles(change)
        print(f"{name}\t{direction}\t{p50:.6g}\t{c50:.6g}\t{pct:+.2f}\t{pq1:.6g}..{pq3:.6g}\t{cq1:.6g}..{cq3:.6g}"
              f"\t{wins}/{len(parent)}\t{'yes' if holds else 'no'}")
    print(f"failed ops: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
