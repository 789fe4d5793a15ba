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
import json
import locale
import os
import struct
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
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
        if self.force is not None and (self.mode == "exhaustive" or self.trials != 1):
            raise ProfileError(f"a forced outcome runs one branch, not mode {self.mode!r} or {self.trials} trials")
        if self.mode == "exhaustive" and self.trials != 1:
            raise ProfileError(f"an exhaustive run enumerates every branch, not {self.trials} trials")
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
        # A sum that drops a share's phase (fl(1e16 + 0.5) == 1e16) is a target the bases do not encode.
        gap = np.max(np.abs(np.exp(1j * composed.delta) - np.prod(np.exp(1j * shares.shares), axis=0)))
        if gap > COMPOSE_TOL:
            raise ProfileError(f"'shares' lose precision when composed: their sum's phases are off by {gap:.3g}")
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


def _collect_bases(sets: protocol.MeasurementBases) -> dict[str, float]:
    """The Gram deviation of each distinct basis of `measurement_bases`, by
    label: the magnitude sender's (her slot repeats it), then every phase
    sender's eight."""
    return dict(zip([label for row in sets.labels for label in row], sets.deviations.reshape(-1).tolist()))


def _run_campaign(
    config: RunConfig, x: AmplitudeProfile, phases: PhaseProfile | PhaseShares, sets: protocol.MeasurementBases
) -> Branches:
    return protocol.run_branches(x, phases, sets, config.mode, config.seed, config.trials, config.force)


@dataclass(frozen=True)
class VerificationReport:
    """A verify report: the head, `engine_version` to `passed`, in output
    order, then the branch rows as the engine's columns. Row b of each column
    is branch b, and every row announces `classical_bits` bits."""

    engine_version: str
    config: dict
    basis_validation: dict[str, float]
    aggregates: dict
    checks: dict
    passed: bool
    outcomes: np.ndarray  # (B, N) announced digits k, j_1, ..., j_{N-1}
    probabilities: np.ndarray  # (B,) float64
    triples: np.ndarray  # (B,) index into protocol._TRIPLES of each correction
    fidelities: np.ndarray  # (B,) float64
    classical_bits: int

    @property
    def corrections(self) -> list[CorrectionTriple]:
        return protocol.corrections_of(self.triples)

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
        outcomes = ("".join(map(str, row)) for row in self.outcomes.tolist())
        rows = zip(outcomes, self.probabilities.tolist(), self.corrections, self.fidelities.tolist())
        bits = self.classical_bits
        branches = [
            {"outcome": o, "probability": p, "correction": list(c), "fidelity": f, "classical_bits": bits}
            for o, p, c, f in rows
        ]
        return {**self.head(), "branches": branches}


def _outcome_strings(outcomes: np.ndarray) -> list[str]:
    """Each row of announced digits (each in 0..7) as its digit string,
    decoded from one ASCII buffer of the rows, each ended by a newline."""
    rows, n = outcomes.shape
    text = np.empty((rows, n + 1), dtype=np.uint8)
    text.fill(ord("\n"))
    np.add(outcomes, ord("0"), out=text[:, :n], casting="unsafe")
    return text.tobytes().decode("ascii").split("\n")[:-1]


def build_report(config: RunConfig, basis_devs: dict[str, float], run: Branches) -> VerificationReport:
    """The report of one campaign: the one judge of its branches and bases.

    `probability_sum` adds the rows left to right (np.add.accumulate; np.sum adds
    pairwise, which gives other bits), and `min_fidelity` is Python's `min`
    over the rows, which keeps a NaN only in the first row (np.min keeps
    any); `fidelity_pass` asks every row, so a NaN anywhere fails it. A
    campaign has at least one branch."""
    n = config.senders
    bits = 3 * run.outcomes.shape[1]
    probabilities = run.probabilities
    min_fid = min(run.fidelities.tolist())
    prob_sum = float(np.add.accumulate(probabilities)[-1])
    bases_pass = all(dev <= bases.NORM_TOL for dev in basis_devs.values())
    fid_pass = bool((run.fidelities >= 1.0 - FIDELITY_TOL).all())
    bits_pass = bits == protocol.classical_cost(n)
    if config.mode == "exhaustive":
        rule = "sum-to-one"
        prob_pass = abs(prob_sum - 1.0) <= FIDELITY_TOL
    else:
        rule = "uniform-branch"
        prob_pass = bool((np.abs(probabilities - 8.0**-n) <= FIDELITY_TOL).all())
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
    columns = (run.outcomes, probabilities, run.triples, run.fidelities, bits)
    return VerificationReport(__version__, config.echo(), basis_devs, aggregates, checks, passed, *columns)


# The renderers write the bytes of json.dumps(..., indent=2) (structured) or
# of the tab-separated lines (table). Each document is one "".join over a
# list that holds the head, then per row the pieces of a row template (the
# text between its %s slots) interleaved with that row's column texts, then
# the tail; `_fill_rows` fills it a column at a time by slice assignment.
# Structured rows sit at depth 2 of the document, outcomes are digit strings
# and corrections triples over CORRECTION_OPS, indexed as protocol._TRIPLES.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_FLOAT_BITS = struct.Struct("<d").pack
_JSON_CORRECTION = np.array(
    ["[\n" + ",\n".join(f"        {json.dumps(op)}" for op in triple) + "\n      ]" for triple in protocol._TRIPLES],
    dtype=object,
)
_TABLE_CORRECTION = np.array([" ".join(triple) for triple in protocol._TRIPLES], dtype=object)
_JSON_BRANCH_ROW = (
    '    {\n      "outcome": "%s",\n      "probability": %s,\n      "correction": %s,\n'
    '      "fidelity": %s,\n      "classical_bits": %s\n    }'
)
_JSON_ENTRY_ROW = '    {\n      "outcome": "%s",\n      "correction": %s,\n      "fidelity": %s\n    }'


def _float_texts(values: np.ndarray, spelling: dict[str, str]) -> list[str]:
    """Each float64 value as float.__repr__ writes it, or as `spelling`
    respells that text. Computed once per run of equal bit patterns, so 0.0
    and -0.0 stay apart: a campaign's column is mostly one run, since its
    rows share one probability and one fidelity."""
    bits = values.view(np.uint64)
    starts = [0, *((bits[1:] != bits[:-1]).nonzero()[0] + 1).tolist()] if len(bits) else []
    texts = []
    for start, stop, value in zip(starts, [*starts[1:], len(bits)], values[starts].tolist()):
        text = float.__repr__(value)
        texts += [spelling.get(text, text)] * (stop - start)
    return texts


def _fill_rows(head: str, template: str, columns: list[list[str]], sep: str, tail: str) -> str:
    """`head + sep.join(template % row for row in zip(*columns)) + tail`,
    as one join over a list filled a column at a time."""
    pieces = template.split("%s")
    rows, width = len(columns[0]), 2 * len(columns) + 1
    parts = [None] * (width * rows + 2)
    parts[0], parts[-1] = head, tail
    for i, column in enumerate(columns):
        parts[1 + 2 * i : -1 : width] = [pieces[i]] * rows
        parts[2 + 2 * i : -1 : width] = column
    parts[width:-1:width] = [pieces[-1] + sep] * rows
    if rows:
        parts[-2] = pieces[-1]
    return "".join(parts)


def _json_scalar(value, float_texts: dict[bytes, str]) -> str:
    """`json.dumps(value)` of a float, string, None, bool or int, else TypeError. Float
    texts are kept in `float_texts` by bit pattern, so 0.0 and -0.0 stay apart."""
    if isinstance(value, float):
        bits = _FLOAT_BITS(value)
        if bits not in float_texts:
            text = float.__repr__(value)
            float_texts[bits] = _JSON_NONFINITE.get(text, text)
        return float_texts[bits]
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_document(head: dict, key: str, template: str, columns: list[list[str]]) -> str:
    """`json.dumps({**head, key: [...]}, indent=2) + "\n"`, the items written as `template` over the columns;
    `head` is not empty, its keys strings (else TypeError) and its values `_json_scalar`s or dicts of them."""
    fields, float_texts = [], {}
    for name, value in head.items():
        if isinstance(value, dict):
            inner = ",\n    ".join([encode_basestring_ascii(k) + ": " + _json_scalar(v, float_texts)
                                     for k, v in value.items()])
            value = "{\n    " + inner + "\n  }" if inner else "{}"
        else:
            value = _json_scalar(value, float_texts)
        fields.append(encode_basestring_ascii(name) + ": " + value)
    head_text = "{\n  " + ",\n  ".join(fields) + ",\n  " + encode_basestring_ascii(key) + ": "
    if not len(columns[0]):
        return head_text + "[]\n}\n"
    return _fill_rows(head_text + "[\n", template, columns, ",\n", "\n  ]\n}\n")


def render_report(report: VerificationReport, fmt: str) -> str:
    outcomes = _outcome_strings(report.outcomes)
    # Every row announces the same bits: written into the row template, whose
    # other four slots stay "%s".
    slots = ("%s",) * 4 + (report.classical_bits,)
    if fmt == "structured":
        columns = [
            outcomes, _float_texts(report.probabilities, _JSON_NONFINITE), _JSON_CORRECTION[report.triples].tolist(),
            _float_texts(report.fidelities, _JSON_NONFINITE),
        ]
        return _json_document(report.head(), "branches", _JSON_BRANCH_ROW % slots, columns)
    lines = [f"# engine_version\t{report.engine_version}"]
    lines.extend(f"# config.{k}\t{v}" for k, v in report.config.items())
    lines.extend(f"# basis.{k}\t{v!r}" for k, v in report.basis_validation.items())
    lines.extend(f"# aggregate.{k}\t{v!r}" for k, v in report.aggregates.items())
    lines.extend(f"# check.{k}\t{v}" for k, v in report.checks.items())
    lines.append(f"# passed\t{report.passed}")
    lines.append("outcome\tprobability\tcorrection\tfidelity\tclassical_bits\n")
    columns = [
        outcomes, _float_texts(report.probabilities, {}), _TABLE_CORRECTION[report.triples].tolist(),
        _float_texts(report.fidelities, {}),
    ]
    return _fill_rows("\n".join(lines), "%s\t%s\t%s\t%s\t%s\n" % slots, columns, "", "")


def _write_output(text: str, out_path: str | None) -> None:
    """To stdout, or to `out_path` with no `io` stack: encoded before the open (a failure leaves the file), with
    surrogateescape, so a path that argv decoded that way is written as its own bytes; then `os.write` to the end."""
    if out_path is None:
        sys.stdout.write(text)
        return
    data = memoryview(text.encode(locale.getpreferredencoding(False), "surrogateescape"))
    try:
        fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
    except OSError as exc:
        raise ProfileError(f"cannot write {out_path}: {exc}") from exc


def cmd_verify(config: RunConfig) -> tuple[int, VerificationReport]:
    """Run the configured campaign, write the report, return (status, report)."""
    x, phases = resolve_inputs(config)
    sets = protocol.measurement_bases(x, phases, config.senders)
    report = build_report(config, _collect_bases(sets), _run_campaign(config, x, phases, sets))
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
    if config.mode != "sampled" or config.trials != 1:  # a forced outcome is one sampled trial
        raise ProfileError(f"run executes one branch, not mode {config.mode!r} or {config.trials} trials")
    x, phases = resolve_inputs(config)
    sets = protocol.measurement_bases(x, phases, config.senders)
    transcript = protocol.transcripts(_run_campaign(config, x, phases, sets))[0]
    _write_output(render_transcript(transcript, config.fmt), config.out_path)
    return EXIT_PASS, transcript


def render_table(table: protocol.CorrectionTable, fmt: str) -> str:
    """The table's rows in their (lexicographic) order, from its columns."""
    outcomes = _outcome_strings(table.outcomes)
    if fmt == "structured":
        head = {"engine_version": __version__, "senders": table.n_senders}
        columns = [outcomes, _JSON_CORRECTION[table.triples].tolist(), _float_texts(table.fidelities, _JSON_NONFINITE)]
        return _json_document(head, "entries", _JSON_ENTRY_ROW, columns)
    columns = [outcomes, _TABLE_CORRECTION[table.triples].tolist(), _float_texts(table.fidelities, {})]
    return _fill_rows("outcome\tcorrection\tfidelity\n", "%s\t%s\t%s\n", columns, "", "")


def cmd_table(config: RunConfig) -> tuple[int, protocol.CorrectionTable]:
    """Derive, verify and emit the full correction table."""
    table = protocol.build_correction_table(config.senders)
    _write_output(render_table(table, config.fmt), config.out_path)
    return EXIT_PASS, table


def parse_force(text: str) -> tuple[int, tuple[int, ...]]:
    """Parse a forced outcome written as K:J1[,J2,...], every field ASCII decimal digits
    (int() alone would also read other scripts' digits, "_", signs and spaces)."""
    head, _, tail = text.partition(":")
    fields = [head, *tail.split(",")]
    try:
        if not all(field.isascii() and field.isdigit() for field in fields):
            raise ValueError(text)
        k, *js = map(int, fields)  # a field past int()'s digit limit raises ValueError too
    except ValueError as exc:
        raise ProfileError(f"cannot parse forced outcome {text!r}: expected K:J1[,J2,...]") from exc
    return k, tuple(js)


@functools.cache  # built once per process: building costs about ten parses
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, tuple[dict[str, argparse.Action], dict]]]:
    """The parser, and per command its actions by long option and the exclusive
    group of each grouped action, as `add_argument` returned them."""
    parser = argparse.ArgumentParser(prog="chi-jrsp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, help, inputs=True):
        p = sub.add_parser(name, help=help)
        options, groups = commands[name] = {}, {}

        def add(flag, group=None, **kwargs):
            options[flag] = (group or p).add_argument(flag, **kwargs)
            if group is not None:
                groups[options[flag]] = group

        add("--senders", type=int, default=2, metavar="N")
        if inputs:
            add("--seed", type=int, default=0, metavar="S")
            group = p.add_mutually_exclusive_group()
            add("--profile", group, metavar="PATH")
            add("--random", group, action="store_true", help="draw a seeded random profile (default)")
        add("--out", metavar="PATH")
        add("--format", choices=("structured", "table"), default="structured")
        return p, add

    verify, add = command("verify", "run a verification campaign")
    mode = verify.add_mutually_exclusive_group()
    add("--exhaustive", mode, action="store_true", help="enumerate every outcome branch")
    # No default here, so that argparse sees any --trials, even "--trials 1".
    add("--trials", mode, type=int, metavar="T", help="sampled-mode branch count (default 1)")

    _, add = command("run", "run a single protocol execution")
    add("--force-outcome", metavar="K:J1[,J2,...]", help="run this branch instead of sampling")

    command("table", "emit the verified correction table", inputs=False)
    return parser, commands


def _direct_fields(argv: list[str], commands: dict) -> dict | None:
    """The fields of `parse_args(argv)` when argv is a command followed by its
    long options alone: each spelled in full and given once, at most one from
    each exclusive group, every value the next word, which does not start with
    "-" and passes the action's type and choices. Else None."""
    if not argv or argv[0] not in commands:
        return None
    options, groups = commands[argv[0]]
    values, taken, words = {}, set(), iter(argv[1:])
    for word in words:
        action = options.get(word)
        group = groups.get(action, action)  # an ungrouped action is its own group
        if action is None or group in taken:
            return None
        taken.add(group)
        if action.nargs == 0:  # store_true
            values[action.dest] = action.const
            continue
        value = next(words, "-")
        if value.startswith("-"):
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return {"command": argv[0], **{action.dest: action.default for action in options.values()}, **values}


def _parse(argv) -> argparse.Namespace:
    """`parse_args(argv)`, read directly where `_direct_fields` can; argparse reads
    every other argv and writes every usage, help and error text."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    fields = _direct_fields(argv, commands)
    return parser.parse_args(argv) if fields is None else argparse.Namespace(**fields)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        force = parse_force(args.force_outcome) if getattr(args, "force_outcome", None) is not None else None
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
