"""Command-line front end: verification campaigns, single runs, correction tables.

Profiles come from a JSON document ("x": 8 reals, "delta": 8 reals with
delta[0] == 0, optional "shares": (N-1) x 8 reals) or are drawn from a seeded
generator. Reports are rendered as JSON ("structured") or as a tab-delimited
table ("table"); identical config and seed produce byte-identical output.

Exit codes: 0 pass, 1 verification failure, 2 input error (including an
unwritable output path), 3 internal oracle failure (no correction found,
which signals a transcription bug), 4 internal error (any other exception,
reported as one `internal error:` line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, bases, protocol
from .bases import AmplitudeProfile, PhaseProfile, PhaseShares
from .protocol import FIDELITY_TOL, Branches, CorrectionTriple, NoCorrectionFound, ProtocolTranscript

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_ORACLE_ERROR = 3
EXIT_INTERNAL_ERROR = 4

COMPOSE_TOL = 1e-12


class ProfileError(ValueError):
    """Malformed or inconsistent protocol inputs, or an unwritable output path."""


@dataclass(frozen=True)
class RunConfig:
    senders: int = 2
    mode: str = "sampled"
    trials: int = 1
    seed: int = 0
    profile_path: str | None = None
    out_path: str | None = None
    fmt: str = "structured"
    force: tuple[int, tuple[int, ...]] | None = None

    def __post_init__(self):
        if not 2 <= self.senders <= protocol.MAX_SENDERS:
            raise ProfileError(f"senders must be in 2..{protocol.MAX_SENDERS}, got {self.senders}")
        if self.mode not in ("exhaustive", "sampled"):
            raise ProfileError(f"mode must be 'exhaustive' or 'sampled', got {self.mode!r}")
        if self.mode == "exhaustive" and self.senders > protocol.MAX_ENUMERATED_SENDERS:
            raise ProfileError(f"exhaustive mode is only allowed for at most {protocol.MAX_ENUMERATED_SENDERS} senders")
        if self.trials < 1:
            raise ProfileError(f"trials must be at least 1, got {self.trials}")
        if self.seed < 0:
            raise ProfileError(f"seed must be non-negative, got {self.seed}")
        if self.force is not None and not all(0 <= d <= 7 for d in (self.force[0], *self.force[1])):
            raise ProfileError(f"forced outcome digits must be in 0..7, got {self.echo()['force']!r}")
        if self.force is not None and len(self.force[1]) != self.senders - 1:
            raise ProfileError(
                f"forced outcome lists {len(self.force[1])} phase-sender digits, expected {self.senders - 1}"
            )
        if self.fmt not in ("structured", "table"):
            raise ProfileError(f"format must be 'structured' or 'table', got {self.fmt!r}")

    def echo(self) -> dict:
        return {
            "senders": self.senders,
            "mode": self.mode,
            "trials": self.trials,
            "seed": self.seed,
            "profile": self.profile_path or "random",
            "format": self.fmt,
            "force": None if self.force is None else f"{self.force[0]}:" + ",".join(map(str, self.force[1])),
        }


def _reals(obj, what: str) -> list[float]:
    # Every number in a profile parses as a float, so booleans fail here.
    if not isinstance(obj, list) or not all(isinstance(v, float) for v in obj):
        raise ProfileError(f"{what} must be a list of reals")
    if len(obj) != 8:
        raise ProfileError(f"{what} must have 8 entries, got {len(obj)}")
    return obj


def load_profile(path: str, senders: int) -> tuple[AmplitudeProfile, PhaseProfile | PhaseShares]:
    """Parse and validate a profile document for a run with `senders` senders:
    the magnitudes, then the shares if there are any, otherwise 'delta'.

    Integers parse as floats, so one beyond float range reads as inf (rejected
    as non-finite) and none meets int's digit limit.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=float)
    except OSError as exc:
        raise ProfileError(f"cannot read profile {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProfileError(f"profile {path} is not UTF-8 text: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ProfileError(f"profile {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProfileError("profile document must be a JSON object")
    if unknown := set(doc) - {"x", "delta", "shares"}:
        raise ProfileError(f"unknown profile fields: {sorted(unknown)}")
    if "x" not in doc:
        raise ProfileError("profile is missing field 'x'")

    # Fields are checked in order, 'x' first; every ValueError becomes a ProfileError.
    try:
        x = AmplitudeProfile(_reals(doc["x"], "'x'"))
        delta = PhaseProfile(_reals(doc["delta"], "'delta'")) if "delta" in doc else None
        shares = None
        if "shares" in doc:
            rows = doc["shares"]
            if not isinstance(rows, list) or not rows:
                raise ProfileError("'shares' must be a non-empty list of rows")
            shares = PhaseShares([_reals(row, "'shares' row") for row in rows])
    except ValueError as exc:
        raise ProfileError(str(exc)) from exc
    if shares is not None:
        if shares.n_senders != senders:
            raise ProfileError(f"'shares' has {len(rows)} rows, expected {senders - 1} for {senders} senders")
        composed = bases.compose_phases(shares)
        if delta is not None and np.max(np.abs(composed.delta - delta.delta)) > COMPOSE_TOL:
            raise ProfileError("'shares' do not compose to 'delta'")
        return x, shares
    if delta is None:
        raise ProfileError("profile must provide 'delta' or 'shares'")
    if senders > 2:
        raise ProfileError(f"a {senders}-sender run needs 'shares' with {senders - 1} rows")
    return x, delta


def resolve_inputs(config: RunConfig) -> tuple[AmplitudeProfile, PhaseProfile | PhaseShares]:
    """Magnitudes and phase input (the shares when there are any), from the
    profile file or from the seeded generator, per the config."""
    if config.profile_path is None:
        return bases.random_inputs(config.senders, config.seed)
    return load_profile(config.profile_path, config.senders)


def _collect_bases(sets: list[list[bases.BasisSet]]) -> list[bases.BasisSet]:
    """Each distinct basis of `measurement_bases` once: the magnitude
    sender's, then every phase sender's eight."""
    amplitude, *phase_senders = sets
    return [amplitude[0], *(basis for row in phase_senders for basis in row)]


def _run_campaign(
    config: RunConfig, x: AmplitudeProfile, phases: PhaseProfile | PhaseShares, sets: list[list[bases.BasisSet]]
) -> Branches:
    return protocol.run_branches(x, phases, sets, config.mode, config.seed, config.trials, config.force)


@dataclass(frozen=True)
class VerificationReport:
    """A verify report: the head, `engine_version` to `passed`, in output
    order, then the branch rows as columns. Row b of each column is branch b,
    and every row announces `classical_bits` bits."""

    engine_version: str
    config: dict
    basis_validation: dict[str, float]
    aggregates: dict
    checks: dict
    passed: bool
    outcomes: list[str]
    probabilities: list[float]
    corrections: list[CorrectionTriple]
    fidelities: list[float]
    classical_bits: int

    def head(self) -> dict:
        """The fields before the branch rows, in output order."""
        return {
            "engine_version": self.engine_version,
            "config": self.config,
            "basis_validation": self.basis_validation,
            "aggregates": self.aggregates,
            "checks": self.checks,
            "passed": self.passed,
        }

    def to_dict(self) -> dict:
        """The report as one document, the branch rows as dicts; its
        `json.dumps(..., indent=2)` is the structured report."""
        rows = zip(self.outcomes, self.probabilities, self.corrections, self.fidelities)
        bits = self.classical_bits
        branches = [
            {"outcome": o, "probability": p, "correction": list(c), "fidelity": f, "classical_bits": bits}
            for o, p, c, f in rows
        ]
        return {**self.head(), "branches": branches}


def _outcome_strings(outcomes: np.ndarray) -> list[str]:
    """Each row of announced digits (each in 0..7) as its digit string: the
    row's base-8 index in octal, zero-padded to the row's length."""
    n = outcomes.shape[1]
    return list(map(f"%0{n}o".__mod__, (outcomes @ 8 ** np.arange(n - 1, -1, -1)).tolist()))


def build_report(config: RunConfig, basis_devs: dict[str, float], run: Branches) -> VerificationReport:
    """The report of one campaign: the one judge of its branches and bases."""
    n = config.senders
    bits = 3 * run.outcomes.shape[1]
    probabilities = run.probabilities.tolist()
    fidelities = run.fidelities.tolist()
    min_fid = min(fidelities)
    prob_sum = sum(probabilities)
    bases_pass = all(dev <= bases.NORM_TOL for dev in basis_devs.values())
    fid_pass = min_fid >= 1.0 - FIDELITY_TOL
    bits_pass = bits == protocol.classical_cost(n)
    if config.mode == "exhaustive":
        rule = "sum-to-one"
        prob_pass = abs(prob_sum - 1.0) <= FIDELITY_TOL
    else:
        rule = "uniform-branch"
        prob_pass = all(abs(p - 8.0**-n) <= FIDELITY_TOL for p in probabilities)
    aggregates = {
        "branch_count": len(probabilities),
        "min_fidelity": min_fid,
        "probability_sum": prob_sum,
        "classical_bits_per_run": protocol.classical_cost(n),
    }
    checks = {
        "fidelity_pass": fid_pass,
        "probability_rule": rule,
        "probability_pass": prob_pass,
        "bases_pass": bases_pass,
        "bits_pass": bits_pass,
    }
    passed = fid_pass and prob_pass and bases_pass and bits_pass
    columns = (_outcome_strings(run.outcomes), probabilities, run.corrections, fidelities, bits)
    return VerificationReport(__version__, config.echo(), basis_devs, aggregates, checks, passed, *columns)


# The structured renderers write the bytes of json.dumps(..., indent=2): the
# head through json.dumps itself, the rows through one %-template per row,
# filled with JSON text. Rows sit at depth 2 of the document; outcomes are
# digit strings and corrections triples over CORRECTION_OPS.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_CORRECTION = {
    triple: "[\n" + ",\n".join(f"        {json.dumps(op)}" for op in triple) + "\n      ]"
    for triple in itertools.product(protocol.CORRECTION_OPS, repeat=3)
}
_JSON_BRANCH_ROW = (
    '    {\n      "outcome": "%s",\n      "probability": %s,\n      "correction": %s,\n'
    '      "fidelity": %s,\n      "classical_bits": %s\n    }'
)
_JSON_ENTRY_ROW = '    {\n      "outcome": "%s",\n      "correction": %s,\n      "fidelity": %s\n    }'


def _float_texts(values: list[float], spelling: dict[str, str]) -> list[str]:
    """Each value as float.__repr__ writes it, or as `spelling` respells that
    text. Computed once per distinct bit pattern, so 0.0 and -0.0 stay apart:
    the rows of one campaign share a few probabilities and fidelities. (A
    dict, not np.unique, whose first call adds about 0.4 MiB of RSS.)"""
    patterns = np.array(values, dtype=float).view(np.uint64).tolist()
    distinct = dict(zip(patterns, values))
    texts = {p: spelling.get(text, text) for p, text in zip(distinct, map(float.__repr__, distinct.values()))}
    return list(map(texts.__getitem__, patterns))


def _json_document(head: dict, key: str, rows: Iterable[str]) -> str:
    """`json.dumps({**head, key: [...]}, indent=2) + "\n"`, with the list's
    items already rendered as `rows`; `head` must not be empty."""
    body = ",\n".join(rows)
    items = f"[\n{body}\n  ]" if body else "[]"
    return f"{json.dumps(head, indent=2)[:-2]},\n  {json.dumps(key)}: {items}\n}}\n"


def render_report(report: VerificationReport, fmt: str) -> str:
    bits = itertools.repeat(report.classical_bits)
    if fmt == "structured":
        rows = zip(
            report.outcomes, _float_texts(report.probabilities, _JSON_NONFINITE),
            map(_JSON_CORRECTION.__getitem__, report.corrections), _float_texts(report.fidelities, _JSON_NONFINITE),
            bits,
        )
        return _json_document(report.head(), "branches", map(_JSON_BRANCH_ROW.__mod__, rows))
    lines = [f"# engine_version\t{report.engine_version}"]
    lines.extend(f"# config.{k}\t{v}" for k, v in report.config.items())
    lines.extend(f"# basis.{k}\t{v!r}" for k, v in report.basis_validation.items())
    lines.extend(f"# aggregate.{k}\t{v!r}" for k, v in report.aggregates.items())
    lines.extend(f"# check.{k}\t{v}" for k, v in report.checks.items())
    lines.append(f"# passed\t{report.passed}")
    lines.append("outcome\tprobability\tcorrection\tfidelity\tclassical_bits")
    rows = zip(
        report.outcomes, _float_texts(report.probabilities, {}), map(" ".join, report.corrections),
        _float_texts(report.fidelities, {}), bits,
    )
    lines.extend(map("%s\t%s\t%s\t%s\t%s".__mod__, rows))
    return "\n".join(lines) + "\n"


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        Path(out_path).write_text(text)
    except OSError as exc:
        raise ProfileError(f"cannot write {out_path}: {exc}") from exc


def cmd_verify(config: RunConfig) -> tuple[int, VerificationReport]:
    """Run the configured campaign, write the report, return (status, report)."""
    x, phases = resolve_inputs(config)
    sets = protocol.measurement_bases(x, phases, config.senders)
    basis_devs = {b.label: bases.validate_orthonormal(b).max_deviation for b in _collect_bases(sets)}
    report = build_report(config, basis_devs, _run_campaign(config, x, phases, sets))
    _write_output(render_report(report, config.fmt), config.out_path)
    return (EXIT_PASS if report.passed else EXIT_VERIFY_FAIL), report


def _channel(t: ProtocolTranscript) -> str:
    parties = len(t.outcome) + 1
    return f"3 x GHZ({parties}) over {3 * parties} qubits"


def transcript_to_dict(t: ProtocolTranscript) -> dict:
    return {
        "channel": _channel(t),
        "outcome": "".join(map(str, t.outcome)),
        "measurements": [
            {"party": m.party, "basis": m.basis, "outcome": m.outcome, "probability": m.probability}
            for m in t.measurements
        ],
        "classical_bits": t.classical_bits,
        "correction": list(t.correction),
        "probability": t.probability,
        "fidelity": t.fidelity,
        "final_state": [[a.real, a.imag] for a in t.final_state.amps],
    }


def render_transcript(t: ProtocolTranscript, fmt: str) -> str:
    if fmt == "structured":
        return json.dumps(transcript_to_dict(t), indent=2) + "\n"
    lines = [f"# channel\t{_channel(t)}", "party\tbasis\toutcome\tprobability"]
    for m in t.measurements:
        lines.append(f"{m.party}\t{m.basis}\t{m.outcome}\t{m.probability!r}")
    lines.append(f"# classical_bits\t{t.classical_bits}")
    lines.append(f"# correction\t{' '.join(t.correction)}")
    lines.append(f"# probability\t{t.probability!r}")
    lines.append(f"# fidelity\t{t.fidelity!r}")
    return "\n".join(lines) + "\n"


def cmd_run(config: RunConfig) -> tuple[int, ProtocolTranscript]:
    """One protocol execution (sampled, or forced via config.force)."""
    x, phases = resolve_inputs(config)
    sets = protocol.measurement_bases(x, phases, config.senders)
    transcript = protocol.transcripts(_run_campaign(config, x, phases, sets))[0]
    _write_output(render_transcript(transcript, config.fmt), config.out_path)
    return EXIT_PASS, transcript


def render_table(table: protocol.CorrectionTable, fmt: str) -> str:
    keys = sorted(table.entries)
    outcomes = map(("%d" * table.n_senders).__mod__, keys)
    corrections = map(table.entries.__getitem__, keys)
    fidelities = [table.fidelities[key] for key in keys]
    if fmt == "structured":
        head = {"engine_version": __version__, "senders": table.n_senders}
        rows = zip(outcomes, map(_JSON_CORRECTION.__getitem__, corrections), _float_texts(fidelities, _JSON_NONFINITE))
        return _json_document(head, "entries", map(_JSON_ENTRY_ROW.__mod__, rows))
    rows = zip(outcomes, map(" ".join, corrections), _float_texts(fidelities, {}))
    return "\n".join(["outcome\tcorrection\tfidelity", *map("%s\t%s\t%s".__mod__, rows)]) + "\n"


def cmd_table(config: RunConfig) -> tuple[int, protocol.CorrectionTable]:
    """Derive, verify and emit the full correction table."""
    if config.senders > protocol.MAX_ENUMERATED_SENDERS:
        raise ProfileError(f"full correction tables are limited to {protocol.MAX_ENUMERATED_SENDERS} senders")
    table = protocol.build_correction_table(config.senders)
    _write_output(render_table(table, config.fmt), config.out_path)
    return EXIT_PASS, table


def parse_force(text: str) -> tuple[int, tuple[int, ...]]:
    """Parse a forced outcome written as K:J1[,J2,...]."""
    try:
        head, _, tail = text.partition(":")
        k = int(head)
        js = tuple(int(p) for p in tail.split(","))
    except ValueError as exc:
        raise ProfileError(f"cannot parse forced outcome {text!r}: expected K:J1[,J2,...]") from exc
    return k, js


@functools.cache  # built once per process: building costs about ten parses
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chi-jrsp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, inputs=True):
        p.add_argument("--senders", type=int, default=2, metavar="N")
        if inputs:
            p.add_argument("--seed", type=int, default=0, metavar="S")
            group = p.add_mutually_exclusive_group()
            group.add_argument("--profile", metavar="PATH")
            group.add_argument("--random", action="store_true", help="draw a seeded random profile (default)")
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--format", choices=("structured", "table"), default="structured")

    verify = sub.add_parser("verify", help="run a verification campaign")
    common(verify)
    mode = verify.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", help="enumerate every outcome branch")
    # No default here, so that argparse sees any --trials, even "--trials 1".
    mode.add_argument("--trials", type=int, metavar="T", help="sampled-mode branch count (default 1)")

    run = sub.add_parser("run", help="run a single protocol execution")
    common(run)
    run.add_argument("--force-outcome", metavar="K:J1[,J2,...]", help="run this branch instead of sampling")

    table = sub.add_parser("table", help="emit the verified correction table")
    common(table, inputs=False)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        force = parse_force(args.force_outcome) if getattr(args, "force_outcome", None) else None
        trials = getattr(args, "trials", None)
        config = RunConfig(
            senders=args.senders,
            mode="exhaustive" if getattr(args, "exhaustive", False) else "sampled",
            trials=1 if trials is None else trials,
            seed=getattr(args, "seed", 0),
            profile_path=getattr(args, "profile", None),
            out_path=args.out,
            fmt=args.format,
            force=force,
        )
        if args.command == "verify":
            status, _ = cmd_verify(config)
        elif args.command == "run":
            status, _ = cmd_run(config)
        else:
            status, _ = cmd_table(config)
        return status
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NoCorrectionFound as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE_ERROR
    except Exception as exc:  # any other failure is a defect, never "verification failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def cli_entry() -> None:
    raise SystemExit(main())
