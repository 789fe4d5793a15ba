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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, bases, protocol
from .bases import AmplitudeProfile, PhaseProfile, PhaseShares
from .protocol import FIDELITY_TOL, Branches, NoCorrectionFound, ProtocolTranscript

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
        if self.mode == "exhaustive" and self.senders > 3:
            raise ProfileError("exhaustive mode is only allowed for at most 3 senders")
        if self.trials < 1:
            raise ProfileError(f"trials must be at least 1, got {self.trials}")
        if self.seed < 0:
            raise ProfileError(f"seed must be non-negative, got {self.seed}")
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


def load_profile(path: str, senders: int) -> tuple[AmplitudeProfile, PhaseProfile, PhaseShares | None]:
    """Parse and validate a profile document for a run with `senders` senders.

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
        delta = composed
    elif delta is None:
        raise ProfileError("profile must provide 'delta' or 'shares'")
    elif senders > 2:
        raise ProfileError(f"a {senders}-sender run needs 'shares' with {senders - 1} rows")

    return x, delta, shares


def resolve_inputs(config: RunConfig) -> tuple[AmplitudeProfile, PhaseProfile | PhaseShares]:
    """Magnitudes and phase input (the shares when there are any), from the
    profile file or from the seeded generator, per the config."""
    if config.profile_path is None:
        return bases.random_inputs(config.senders, config.seed)
    x, delta, shares = load_profile(config.profile_path, config.senders)
    return x, delta if shares is None else shares


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
    """A verify report; fields in output order."""

    engine_version: str
    config: dict
    basis_validation: dict[str, float]
    aggregates: dict
    checks: dict
    passed: bool
    branches: list[dict]

    def to_dict(self) -> dict:
        return dict(vars(self))


def build_report(config: RunConfig, basis_devs: dict[str, float], run: Branches | None) -> VerificationReport:
    """The report of one campaign; `run` is None when a basis failed
    validation and no branch was run."""
    head = (__version__, config.echo(), basis_devs)
    if run is None:
        return VerificationReport(*head, {"branch_count": 0}, {"bases_pass": False}, False, [])
    n = config.senders
    bits = 3 * run.outcomes.shape[1]
    branches = zip(run.outcomes.tolist(), run.probabilities.tolist(), run.corrections, run.fidelities.tolist())
    rows = [
        {"outcome": "".join(map(str, o)), "probability": p, "correction": list(c), "fidelity": f, "classical_bits": bits}
        for o, p, c, f in branches
    ]
    min_fid = min(r["fidelity"] for r in rows)
    prob_sum = sum(r["probability"] for r in rows)
    bases_pass = all(dev <= bases.NORM_TOL for dev in basis_devs.values())
    fid_pass = min_fid >= 1.0 - FIDELITY_TOL
    bits_pass = bits == protocol.classical_cost(n)
    if config.mode == "exhaustive":
        rule = "sum-to-one"
        prob_pass = abs(prob_sum - 1.0) <= FIDELITY_TOL
    else:
        rule = "uniform-branch"
        prob_pass = all(abs(r["probability"] - 8.0**-n) <= FIDELITY_TOL for r in rows)
    aggregates = {
        "branch_count": len(rows),
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
    return VerificationReport(*head, aggregates, checks, fid_pass and prob_pass and bases_pass and bits_pass, rows)


def render_report(report: VerificationReport, fmt: str) -> str:
    if fmt == "structured":
        return json.dumps(report.to_dict(), indent=2) + "\n"
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
        for row in report.branches
    )
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
    bases_pass = all(dev <= bases.NORM_TOL for dev in basis_devs.values())
    report = build_report(config, basis_devs, _run_campaign(config, x, phases, sets) if bases_pass else None)
    _write_output(render_report(report, config.fmt), config.out_path)
    return (EXIT_PASS if report.passed else EXIT_VERIFY_FAIL), report


def transcript_to_dict(t: ProtocolTranscript) -> dict:
    return {
        "channel": t.channel,
        "outcome": t.outcome.digits(),
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
    lines = [f"# channel\t{t.channel}", "party\tbasis\toutcome\tprobability"]
    for m in t.measurements:
        lines.append(f"{m.party}\t{m.basis}\t{m.outcome}\t{m.probability!r}")
    lines.append(f"# classical_bits\t{t.classical_bits}")
    lines.append(f"# correction\t{' '.join(t.correction)}")
    lines.append(f"# probability\t{t.probability!r}")
    lines.append(f"# fidelity\t{t.fidelity!r}")
    return "\n".join(lines) + "\n"


def cmd_run(config: RunConfig) -> tuple[int, ProtocolTranscript]:
    """One protocol execution (sampled, or forced via config.force)."""
    if config.force is not None and len(config.force[1]) != config.senders - 1:
        raise ProfileError(
            f"forced outcome lists {len(config.force[1])} phase-sender digits, expected {config.senders - 1}"
        )
    x, phases = resolve_inputs(config)
    transcript = protocol.run_protocol(x, phases, config.senders, "sampled", config.seed, 1, config.force)[0]
    _write_output(render_transcript(transcript, config.fmt), config.out_path)
    return EXIT_PASS, transcript


def render_table(table: protocol.CorrectionTable, fmt: str) -> str:
    keys = sorted(table.entries)
    if fmt == "structured":
        doc = {
            "engine_version": __version__,
            "senders": table.n_senders,
            "entries": [
                {
                    "outcome": "".join(map(str, key)),
                    "correction": list(table.entries[key]),
                    "fidelity": table.fidelities[key],
                }
                for key in keys
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = ["outcome\tcorrection\tfidelity"]
    lines.extend(f"{''.join(map(str, key))}\t{' '.join(table.entries[key])}\t{table.fidelities[key]!r}" for key in keys)
    return "\n".join(lines) + "\n"


def cmd_table(config: RunConfig) -> tuple[int, protocol.CorrectionTable]:
    """Derive, verify and emit the full correction table (up to 3 senders)."""
    if config.senders > 3:
        raise ProfileError("full correction tables are limited to 3 senders")
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
    if not 0 <= k <= 7 or not all(0 <= j <= 7 for j in js):
        raise ProfileError(f"forced outcome digits must be in 0..7, got {text!r}")
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
