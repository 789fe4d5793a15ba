"""The benchmark's workloads: the CLI arguments of one op and its correctness check.

Every op is one `chi-jrsp` campaign driven through `chi_jrsp.harness.main`.
The report always goes to a file the benchmark owns (`out`), never to stdout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

FIDELITY_TOL = 1e-10

# Branches drawn per sampled5 op: one op takes about 0.2 s on a 2-core x86 box.
SAMPLED_TRIALS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, str], list[str]]  # (op seed, report path) -> CLI arguments
    branches: int  # branches verified (or table entries derived and checked) per op
    check: Callable[[str], str | None]  # report text -> None if correct, else the reason


def _check_verify(expected: int) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        doc = json.loads(text)
        aggregates = doc.get("aggregates", {})
        if doc.get("passed") is not True:
            return "report has passed != true"
        if aggregates.get("branch_count") != expected:
            return f"branch_count {aggregates.get('branch_count')!r}, expected {expected}"
        if not aggregates.get("min_fidelity", 0.0) >= 1.0 - FIDELITY_TOL:
            return f"min_fidelity {aggregates.get('min_fidelity')!r} below 1 - {FIDELITY_TOL}"
        return None

    return check


def _check_table(expected: int) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        entries = json.loads(text).get("entries", [])
        if len(entries) != expected or len({e["outcome"] for e in entries}) != expected:
            return f"{len(entries)} table entries, expected {expected} distinct outcomes"
        worst = min(e["fidelity"] for e in entries)
        if not worst >= 1.0 - FIDELITY_TOL:
            return f"table entry fidelity {worst!r} below 1 - {FIDELITY_TOL}"
        return None

    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exhaustive3",
            lambda seed, out: ["verify", "--senders", "3", "--exhaustive", "--seed", str(seed), "--out", out],
            branches=8**3,
            check=_check_verify(8**3),
        ),
        Workload(
            "sampled5",
            lambda seed, out: [
                "verify", "--senders", "5", "--trials", str(SAMPLED_TRIALS), "--seed", str(seed), "--out", out,
            ],
            branches=SAMPLED_TRIALS,
            check=_check_verify(SAMPLED_TRIALS),
        ),
        # `table` derives its table from fixed internal seeds and takes no
        # profile, so the op seed is not passed: every table3 op computes the
        # same 512-entry table.
        Workload(
            "table3",
            lambda seed, out: ["table", "--senders", "3", "--out", out],
            branches=8**3,
            check=_check_table(8**3),
        ),
    )
}
