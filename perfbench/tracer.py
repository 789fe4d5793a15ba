"""Spans around chi_jrsp's layer functions, patched in from outside the package.

Each patched name is replaced where it is looked up (for example
`protocol.measure_in_basis`, the name `protocol` calls, not only
`qstate.measure_in_basis`) by a wrapper that records a span. A span's parent is
the innermost span open when it starts, so its self time is its duration minus
the durations of its children. Spans are folded into per-name totals as they
close, so a long run keeps a fixed amount of trace state. The benchmark's own
root span around `harness.main` is named "op"; its self time is the op time
that no layer span covers (`trace.unattributed_s`).
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "op"


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[list[float]] = []  # per open span: time covered by its children

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`, child of the innermost open span."""
        children = [0.0]
        self._open.append(children)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self._open.pop()
            self.self_s[name] += duration - children[0]
            self.calls[name] += 1
            if self._open:
                self._open[-1][0] += duration

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(tracer, args, result) runs after it returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def totals(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _count_measure(tracer: Tracer, args, branches) -> None:
    tracer.counts["qstate.measure_in_basis.amps_in"] += args[0].amps.size
    tracer.counts["qstate.measure_in_basis.collapsed_built"] += sum(b.collapsed is not None for b in branches)


def _count_render(tracer: Tracer, args, text: str) -> None:
    tracer.counts["harness.render.bytes"] += len(text.encode())


def _patch_table(harness, protocol, bases, qstate) -> list[tuple[object, str, str, object]]:
    """(module, attribute, span name, counter) for every wrapped name."""

    def count_search(tracer: Tracer, args, triple) -> None:
        tracer.counts["protocol.correction_search.triples_tried"] += protocol._TRIPLES.index(triple) + 1

    return [
        (harness, "cmd_verify", "harness.command", None),
        (harness, "cmd_table", "harness.command", None),
        (harness, "_collect_bases", "harness.validate_bases", None),
        (bases, "validate_orthonormal", "harness.validate_bases", None),
        (harness, "build_report", "harness.build_report", None),
        (harness, "render_report", "harness.render", _count_render),
        (harness, "render_table", "harness.render", _count_render),
        (harness, "_write_output", "harness.write", None),
        (harness, "_run_campaign", "protocol.campaign", None),
        (protocol, "build_correction_table", "protocol.campaign", None),
        (protocol, "prepare_channel", "protocol.prepare_channel", None),
        (protocol, "_collapse_branch", "protocol.collapse_branch", None),
        (protocol, "_search_correction", "protocol.correction_search", count_search),
        (protocol, "_apply_correction", "protocol.apply_correction", None),
        (protocol, "parity_expand", "protocol.parity_expand", None),
        (protocol, "measure_in_basis", "qstate.measure_in_basis", _count_measure),
        (protocol, "fidelity_up_to_phase", "qstate.fidelity", None),
        (qstate, "gram_deviation", "qstate.gram_deviation", None),
        (bases, "gram_deviation", "qstate.gram_deviation", None),
        (bases, "amplitude_basis", "bases.basis_build", None),
        (bases, "phase_basis_from_row", "bases.basis_build", None),
    ]


@contextlib.contextmanager
def patched(tracer: Tracer, harness, protocol, bases, qstate):
    """Install the span wrappers for the duration of the block, then restore."""
    table = _patch_table(harness, protocol, bases, qstate)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in table]
    try:
        for module, attr, name, count in table:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def accumulate(into: dict, totals: dict, scale: float = 1.0) -> dict:
    """Add a tracer's totals into `into`, multiplying the self times by `scale`."""
    for kind, values in totals.items():
        factor = scale if kind == "self_s" else 1
        bucket = into.setdefault(kind, {})
        for name, value in values.items():
            bucket[name] = bucket.get(name, 0) + value * factor
    return into


SELF_TIMED = (
    "harness.command",
    "harness.validate_bases",
    "harness.build_report",
    "harness.render",
    "harness.write",
    "protocol.campaign",
    "protocol.prepare_channel",
    "protocol.collapse_branch",
    "protocol.correction_search",
    "protocol.apply_correction",
    "protocol.parity_expand",
    "bases.basis_build",
    "qstate.measure_in_basis",
    "qstate.gram_deviation",
    "qstate.fidelity",
)
CALLED = (
    "qstate.measure_in_basis",
    "qstate.gram_deviation",
    "bases.basis_build",
    "protocol.prepare_channel",
    "protocol.collapse_branch",
    "protocol.correction_search",
)
COUNTED = {
    "qstate.measure_in_basis.amps_in": "amps/op",
    "qstate.measure_in_basis.collapsed_built": "states/op",
    "protocol.correction_search.triples_tried": "triples/op",
    "harness.render.bytes": "B/op",
}


def layer_metrics(totals: dict, ops: int, branches: int, overhead_frac: float) -> dict[str, dict]:
    """Per-op layer metrics from merged totals over `ops` traced ops.

    `branches` is the useful work those ops did (branches verified, or table
    entries derived and checked); `overhead_frac` is the traced op median
    over the untraced op median, minus 1, from the same processes.
    """
    self_s, calls, counts = totals.get("self_s", {}), totals.get("calls", {}), totals.get("counts", {})
    out: dict[str, dict] = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = {"value": self_s.get(name, 0.0) / ops, "unit": "s/op"}
    for name in CALLED:
        out[f"{name}.calls"] = {"value": calls.get(name, 0) / ops, "unit": "calls/op"}
    for name, unit in COUNTED.items():
        out[name] = {"value": counts.get(name, 0) / ops, "unit": unit}
    collapsed = counts.get("qstate.measure_in_basis.collapsed_built", 0)
    tried = counts.get("protocol.correction_search.triples_tried", 0)
    out["protocol.branches_per_collapse"] = {"value": branches / collapsed if collapsed else 0.0, "unit": "ratio"}
    out["protocol.correction_hit_ratio"] = {
        "value": calls.get("protocol.correction_search", 0) / tried if tried else 0.0,
        "unit": "ratio",
    }
    # Every span's duration is its self time plus its children's, so the self
    # times of all spans, the root's included, add up to the op time.
    out["trace.op_s"] = {"value": sum(self_s.values()) / ops, "unit": "s/op"}
    out["trace.unattributed_s"] = {"value": self_s.get(ROOT, 0.0) / ops, "unit": "s/op"}
    out["trace.overhead_frac"] = {"value": overhead_frac, "unit": "ratio"}
    return out
