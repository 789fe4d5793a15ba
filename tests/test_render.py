"""The renderers against their oracles.

`render_report` and `render_table` write their rows from columns through one
template per row. Their structured output must be the bytes of
`json.dumps(document, indent=2) + "\\n"` for the same document, and their
table output the bytes of the f-string lines they wrote row by row from row
dicts, kept below as the oracles.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi_jrsp import __version__, bases, protocol
from chi_jrsp.harness import (
    RunConfig,
    VerificationReport,
    _collect_bases,
    _outcome_strings,
    build_report,
    render_report,
    render_table,
)
from chi_jrsp.protocol import CORRECTION_OPS, MAX_SENDERS, CorrectionTable
from chi_jrsp.qstate import BasisSet

# Where float.__repr__ switches between positional and exponent notation
# (1e16, 1e-05), the extremes, and the floats json.dumps spells its own way.
EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 9999999999999998.0, 1e-5, 0.0001, 1.7976931348623157e308,
]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
TRIPLES = st.tuples(*[st.sampled_from(CORRECTION_OPS)] * 3)
# 0 and 1 rows as often as many.
ROW_COUNTS = st.one_of(st.sampled_from([0, 1]), st.integers(2, 64))


def report_table_oracle(report: VerificationReport) -> str:
    """The table format as written from row dicts."""
    lines = [f"# engine_version\t{report.engine_version}"]
    lines.extend(f"# config.{k}\t{v}" for k, v in report.config.items())
    lines.extend(f"# basis.{k}\t{v!r}" for k, v in report.basis_validation.items())
    lines.extend(f"# aggregate.{k}\t{v!r}" for k, v in report.aggregates.items())
    lines.extend(f"# check.{k}\t{v}" for k, v in report.checks.items())
    lines.append(f"# passed\t{report.passed}")
    lines.append("outcome\tprobability\tcorrection\tfidelity\tclassical_bits")
    lines.extend(
        f"{row['outcome']}\t{row['probability']!r}\t{' '.join(row['correction'])}"
        f"\t{row['fidelity']!r}\t{row['classical_bits']}"
        for row in report.to_dict()["branches"]
    )
    return "\n".join(lines) + "\n"


def table_document(table: CorrectionTable) -> dict:
    return {
        "engine_version": __version__,
        "senders": table.n_senders,
        "entries": [
            {
                "outcome": "".join(map(str, key)),
                "correction": list(table.entries[key]),
                "fidelity": table.fidelities[key],
            }
            for key in sorted(table.entries)
        ],
    }


def table_table_oracle(table: CorrectionTable) -> str:
    """`table`'s table format as written key by key."""
    keys = sorted(table.entries)
    lines = ["outcome\tcorrection\tfidelity"]
    lines.extend(f"{''.join(map(str, key))}\t{' '.join(table.entries[key])}\t{table.fidelities[key]!r}" for key in keys)
    return "\n".join(lines) + "\n"


def assert_report_renders_as_oracles(report: VerificationReport) -> None:
    assert render_report(report, "structured") == json.dumps(report.to_dict(), indent=2) + "\n"
    assert render_report(report, "table") == report_table_oracle(report)


def assert_table_renders_as_oracles(table: CorrectionTable) -> None:
    assert render_table(table, "structured") == json.dumps(table_document(table), indent=2) + "\n"
    assert render_table(table, "table") == table_table_oracle(table)


@st.composite
def reports(draw) -> VerificationReport:
    n = draw(st.integers(2, MAX_SENDERS))
    rows = draw(ROW_COUNTS)
    digits = st.lists(st.integers(0, 7), min_size=n, max_size=n)
    outcomes = ["".join(map(str, o)) for o in draw(st.lists(digits, min_size=rows, max_size=rows))]
    column = st.lists(FLOATS, min_size=rows, max_size=rows)
    config = RunConfig(senders=n, trials=max(rows, 1), seed=draw(st.integers(0, 2**63)))
    labels = ["amplitude", *(f"phase[{k}]" for k in range(8))]
    return VerificationReport(
        engine_version=__version__,
        config=config.echo(),
        basis_validation=dict(zip(labels, draw(st.lists(FLOATS, min_size=9, max_size=9)))),
        aggregates={
            "branch_count": rows,
            "min_fidelity": draw(FLOATS),
            "probability_sum": draw(FLOATS),
            "classical_bits_per_run": 3 * n,
        },
        checks={
            "fidelity_pass": draw(st.booleans()),
            "probability_rule": "uniform-branch",
            "probability_pass": draw(st.booleans()),
            "bases_pass": draw(st.booleans()),
            "bits_pass": draw(st.booleans()),
        },
        passed=draw(st.booleans()),
        outcomes=outcomes,
        probabilities=draw(column),
        corrections=draw(st.lists(TRIPLES, min_size=rows, max_size=rows)),
        fidelities=draw(column),
        classical_bits=3 * n,
    )


@st.composite
def tables(draw) -> CorrectionTable:
    n = draw(st.integers(2, MAX_SENDERS))
    keys = draw(st.lists(st.tuples(*[st.integers(0, 7)] * n), max_size=64, unique=True))
    triples = draw(st.lists(TRIPLES, min_size=len(keys), max_size=len(keys)))
    fidelities = draw(st.lists(FLOATS, min_size=len(keys), max_size=len(keys)))
    return CorrectionTable(n, dict(zip(keys, triples)), dict(zip(keys, fidelities)))


@settings(max_examples=150, deadline=None)
@given(report=reports())
def test_report_renders_as_oracles(report):
    assert_report_renders_as_oracles(report)


@settings(max_examples=150, deadline=None)
@given(table=tables())
def test_table_renders_as_oracles(table):
    assert_table_renders_as_oracles(table)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, MAX_SENDERS), data=st.data())
def test_outcome_strings_are_the_digits(n, data):
    digits = data.draw(st.lists(st.lists(st.integers(0, 7), min_size=n, max_size=n), max_size=64))
    grid = np.array(digits, dtype=np.intp).reshape(len(digits), n)
    assert _outcome_strings(grid) == ["".join(map(str, row)) for row in digits]


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(senders=2, mode="exhaustive", seed=5),
        RunConfig(senders=3, mode="exhaustive", seed=5),
        RunConfig(senders=4, trials=1, seed=5),
        RunConfig(senders=5, trials=300, seed=5),
    ],
    ids=["exhaustive2", "exhaustive3", "sampled4-one-trial", "sampled5"],
)
def test_campaign_reports_render_as_oracles(config):
    x, phases = bases.random_inputs(config.senders, config.seed)
    sets = protocol.measurement_bases(x, phases, config.senders)
    run = protocol.run_branches(x, phases, sets, config.mode, config.seed, config.trials, config.force)
    report = build_report(config, {"amplitude": 0.0}, run)
    assert len(report.outcomes) == run.outcomes.shape[0]
    assert_report_renders_as_oracles(report)


def test_bases_failure_report_renders_as_oracles():
    # A real three-sender run over an amplitude basis perturbed by 1e-6: the
    # report lists all 512 branches and fails on its bases.
    config = RunConfig(senders=3, mode="exhaustive")
    x, phases = bases.random_inputs(config.senders, config.seed)
    sets = protocol.measurement_bases(x, phases, config.senders)
    vectors = sets[0][0].vectors.copy()
    vectors[0, 0] += 1e-6
    sets[0] = [BasisSet(vectors, label="amplitude", check=False)] * 8
    run = protocol.run_branches(x, phases, sets, config.mode, config.seed, config.trials, config.force)
    report = build_report(config, {b.label: b.deviation for b in _collect_bases(sets)}, run)
    assert report.checks["bases_pass"] is False
    assert report.basis_validation["amplitude"] >= 1e-7
    assert len(report.outcomes) == report.aggregates["branch_count"] == 512
    assert_report_renders_as_oracles(report)


@pytest.mark.parametrize("n_senders", [2, 3])
def test_built_tables_render_as_oracles(n_senders):
    assert_table_renders_as_oracles(protocol.build_correction_table(n_senders))
