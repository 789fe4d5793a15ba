"""The renderers against their oracles.

`render_report` and `render_table` write each document with one join: the
head, then a row template's fixed pieces interleaved with the column texts,
filled a column at a time. Their structured output must be the bytes of
`json.dumps(document, indent=2) + "\\n"` for the same document, and their
table output the bytes of the f-string lines they wrote row by row from row
dicts, kept below as the oracles. The drawn columns are the engine's arrays,
some of them strided views, as the engine may hand them over.
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
from chi_jrsp.protocol import MAX_SENDERS, CorrectionTable
from chi_jrsp.qstate import BasisSet

# Where float.__repr__ switches between positional and exponent notation
# (1e16, 1e-05), the extremes, and the floats json.dumps spells its own way.
EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 9999999999999998.0, 1e-5, 0.0001, 1.7976931348623157e308,
]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
TRIPLE_INDICES = st.integers(0, len(protocol._TRIPLES) - 1)
# 0 and 1 rows as often as many.
ROW_COUNTS = st.one_of(st.sampled_from([0, 1]), st.integers(2, 64))


def layouts(array: np.ndarray) -> list[np.ndarray]:
    """`array` as stored in C order, stored in reverse (a transposed copy of
    a matrix, a reversed copy of a column) and as a strided slice of a larger
    array: equal values, other strides."""
    if array.ndim == 1:
        wide = np.zeros(2 * len(array) + 1, dtype=array.dtype)
        wide[1::2] = array
        return [array, array[::-1].copy()[::-1], wide[1::2]]
    wide = np.zeros((len(array), array.shape[1] + 2), dtype=array.dtype)
    wide[:, 1:-1] = array
    return [array, np.ascontiguousarray(array.T).T, wide[:, 1:-1]]


@st.composite
def columns(draw, elements, rows: int, dtype, n: int | None = None) -> np.ndarray:
    """A (rows,) or (rows, n) column of `elements` in one of its `layouts`."""
    shape = (rows,) if n is None else (rows, n)
    values = draw(st.lists(elements, min_size=rows * (n or 1), max_size=rows * (n or 1)))
    return draw(st.sampled_from(layouts(np.array(values, dtype=dtype).reshape(shape))))


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


def table_rows(table: CorrectionTable):
    """The table's rows in order: (digit string, correction, fidelity)."""
    outcomes = ("".join(map(str, row)) for row in table.outcomes.tolist())
    return zip(outcomes, table.corrections, table.fidelities.tolist())


def table_document(table: CorrectionTable) -> dict:
    return {
        "engine_version": __version__,
        "senders": table.n_senders,
        "entries": [
            {"outcome": outcome, "correction": list(correction), "fidelity": fidelity}
            for outcome, correction, fidelity in table_rows(table)
        ],
    }


def table_table_oracle(table: CorrectionTable) -> str:
    """`table`'s table format as written row by row."""
    lines = ["outcome\tcorrection\tfidelity"]
    lines.extend(f"{outcome}\t{' '.join(c)}\t{fidelity!r}" for outcome, c, fidelity in table_rows(table))
    return "\n".join(lines) + "\n"


def assert_report_renders_as_oracles(report: VerificationReport) -> None:
    assert render_report(report, "structured") == json.dumps(report.to_dict(), indent=2) + "\n"
    assert render_report(report, "table") == report_table_oracle(report)


def assert_table_renders_as_oracles(table: CorrectionTable) -> None:
    assert render_table(table, "structured") == json.dumps(table_document(table), indent=2) + "\n"
    assert render_table(table, "table") == table_table_oracle(table)


@st.composite
def configs(draw, n: int, rows: int) -> RunConfig:
    """An exhaustive, sampled or forced config, its profile random or any path:
    quotes, backslashes, control characters, non-ASCII text and lone surrogates."""
    kind = draw(st.sampled_from(["exhaustive", "sampled", "forced"]))
    force = None
    if kind == "forced":
        k, *js = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
        force = (k, tuple(js))
    return RunConfig(
        senders=n,
        mode="exhaustive" if kind == "exhaustive" else "sampled",
        trials=max(rows, 1) if kind == "sampled" else 1,
        seed=draw(st.integers(0, 2**63)),
        # Every code point, lone surrogates included, which st.text() leaves out by default.
        profile_path=draw(st.one_of(st.none(), st.text(st.characters(exclude_categories=())))),
        force=force,
    )


@st.composite
def reports(draw) -> VerificationReport:
    n = draw(st.integers(2, MAX_SENDERS))
    rows = draw(ROW_COUNTS)
    config = draw(configs(n, rows))
    # The labels a run reports: a two-sender profile's phase[k=..] or any run's share[l=..,k=..].
    phase_labels = protocol._PHASE_LABELS if n == 2 and draw(st.booleans()) else protocol._SHARE_LABELS[: n - 1]
    labels = ["amplitude", *(label for row in phase_labels for label in row)]
    return VerificationReport(
        engine_version=__version__,
        config=config.echo(),
        basis_validation=dict(zip(labels, draw(st.lists(FLOATS, min_size=len(labels), max_size=len(labels))))),
        aggregates={
            "branch_count": rows,
            "min_fidelity": draw(FLOATS),
            "probability_sum": draw(FLOATS),
            "classical_bits_per_run": 3 * n,
        },
        checks={
            "fidelity_pass": draw(st.booleans()),
            "probability_rule": "sum-to-one" if config.mode == "exhaustive" else "uniform-branch",
            "probability_pass": draw(st.booleans()),
            "bases_pass": draw(st.booleans()),
            "bits_pass": draw(st.booleans()),
        },
        passed=draw(st.booleans()),
        outcomes=draw(columns(st.integers(0, 7), rows, np.intp, n)),
        probabilities=draw(columns(FLOATS, rows, float)),
        triples=draw(columns(TRIPLE_INDICES, rows, np.intp)),
        fidelities=draw(columns(FLOATS, rows, float)),
        classical_bits=3 * n,
    )


@st.composite
def tables(draw) -> CorrectionTable:
    n = draw(st.integers(2, MAX_SENDERS))
    # Sorted unique rows: a built table's rows come in lexicographic order.
    keys = sorted(draw(st.lists(st.tuples(*[st.integers(0, 7)] * n), max_size=64, unique=True)))
    outcomes = draw(st.sampled_from(layouts(np.array(keys, dtype=np.intp).reshape(len(keys), n))))
    triples = draw(columns(TRIPLE_INDICES, len(keys), np.intp))
    return CorrectionTable(n, outcomes, triples, draw(columns(FLOATS, len(keys), float)))


@settings(max_examples=150, deadline=None)
@given(report=reports())
def test_report_renders_as_oracles(report):
    assert_report_renders_as_oracles(report)


@settings(max_examples=150, deadline=None)
@given(table=tables())
def test_table_renders_as_oracles(table):
    assert_table_renders_as_oracles(table)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, MAX_SENDERS), data=st.data())
def test_outcome_strings_are_the_digits(n, data):
    digits = data.draw(st.lists(st.lists(st.integers(0, 7), min_size=n, max_size=n), max_size=64))
    expected = ["".join(map(str, row)) for row in digits]
    for grid in layouts(np.array(digits, dtype=np.intp).reshape(len(digits), n)):
        assert _outcome_strings(grid) == expected


def test_outcome_strings_read_strided_digits():
    # Three rows of two digits, whose memory order differs from their row
    # order in the transposed copy and which a column slice interleaves with
    # other digits: a decode of the raw buffer reads other strings.
    grid = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.intp)
    for strided in layouts(grid)[1:]:
        assert not strided.flags.c_contiguous
        assert _outcome_strings(strided) == ["12", "34", "56"]


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


def test_bases_failure_report_renders_as_oracles(monkeypatch):
    # A real three-sender run over an amplitude basis perturbed by 1e-6: the
    # report lists all 512 branches and fails on its bases.
    real = bases.amplitude_basis

    def perturbed(profile):
        vectors = real(profile).vectors.copy()
        vectors[0, 0] += 1e-6
        return BasisSet(vectors, label="amplitude", check=False)

    monkeypatch.setattr(bases, "amplitude_basis", perturbed)
    config = RunConfig(senders=3, mode="exhaustive")
    x, phases = bases.random_inputs(config.senders, config.seed)
    sets = protocol.measurement_bases(x, phases, config.senders)
    run = protocol.run_branches(x, phases, sets, config.mode, config.seed, config.trials, config.force)
    report = build_report(config, _collect_bases(sets), run)
    assert report.checks["bases_pass"] is False
    assert report.basis_validation["amplitude"] >= 1e-7
    assert len(report.outcomes) == report.aggregates["branch_count"] == 512
    assert_report_renders_as_oracles(report)


@pytest.mark.parametrize("n_senders", [2, 3])
def test_built_tables_render_as_oracles(n_senders):
    assert_table_renders_as_oracles(protocol.build_correction_table(n_senders))
