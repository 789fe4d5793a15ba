"""Command-line front end: verification campaigns, single runs, correction tables.

Profiles come from a JSON document ("x": 8 reals, "delta": 8 reals with
delta[0] == 0, optional "shares": (N-1) x 8 reals) or are drawn from a seeded
generator. Reports are rendered as JSON ("structured") or as a tab-delimited
table ("table"); identical config and seed produce byte-identical output.

Exit codes: 0 pass, 1 verification failure, 2 input error (including an
unwritable output path), 3 internal oracle failure (no correction found,
which signals a transcription bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, bases, protocol
from .bases import AmplitudeProfile, PhaseProfile, PhaseShares
from .protocol import FIDELITY_TOL, NoCorrectionFound, ProtocolTranscript

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_ORACLE_ERROR = 3

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
    if not isinstance(obj, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
        raise ProfileError(f"{what} must be a list of reals")
    return [float(v) for v in obj]


def load_profile(path: str, senders: int) -> tuple[AmplitudeProfile, PhaseProfile, PhaseShares | None]:
    """Parse and validate a profile document for a run with `senders` senders."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ProfileError(f"cannot read profile {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProfileError(f"profile {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProfileError(f"profile {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProfileError("profile document must be a JSON object")
    unknown = set(doc) - {"x", "delta", "shares"}
    if unknown:
        raise ProfileError(f"unknown profile fields: {sorted(unknown)}")
    if "x" not in doc:
        raise ProfileError("profile is missing field 'x'")

    x_vals = _reals(doc["x"], "'x'")
    if len(x_vals) != 8:
        raise ProfileError(f"'x' must have 8 entries, got {len(x_vals)}")
    try:
        x = AmplitudeProfile(x_vals)
    except ValueError as exc:
        raise ProfileError(str(exc)) from exc

    delta = None
    if "delta" in doc:
        d_vals = _reals(doc["delta"], "'delta'")
        if len(d_vals) != 8:
            raise ProfileError(f"'delta' must have 8 entries, got {len(d_vals)}")
        try:
            delta = PhaseProfile(d_vals)
        except ValueError as exc:
            raise ProfileError(str(exc)) from exc

    shares = None
    if "shares" in doc:
        rows = doc["shares"]
        if not isinstance(rows, list) or not rows:
            raise ProfileError("'shares' must be a non-empty list of rows")
        try:
            shares = PhaseShares([_reals(row, "'shares' row") for row in rows])
        except ValueError as exc:
            raise ProfileError(str(exc)) from exc
        if shares.n_senders != senders:
            raise ProfileError(
                f"'shares' has {shares.shares.shape[0]} rows, expected {senders - 1} for {senders} senders"
            )

    if shares is not None:
        composed = bases.compose_phases(shares)
        if delta is not None and np.max(np.abs(composed.delta - delta.delta)) > COMPOSE_TOL:
            raise ProfileError("'shares' do not compose to 'delta'")
        delta = composed
    elif delta is None:
        raise ProfileError("profile must provide 'delta' or 'shares'")
    elif senders > 2:
        raise ProfileError(f"a {senders}-sender run needs 'shares' with {senders - 1} rows")

    return x, delta, shares


def resolve_inputs(config: RunConfig) -> tuple[AmplitudeProfile, PhaseProfile, PhaseShares | None]:
    """Profile from file or from the seeded generator, per the config."""
    if config.profile_path is not None:
        return load_profile(config.profile_path, config.senders)
    x, phases = bases.random_inputs(config.senders, config.seed)
    if isinstance(phases, PhaseShares):
        return x, bases.compose_phases(phases), phases
    return x, phases, None


def _collect_bases(senders: int, x: AmplitudeProfile, phases: PhaseProfile | PhaseShares) -> list[bases.BasisSet]:
    amplitude, *phase_senders = protocol.measurement_bases(x, phases, senders)
    return [amplitude[0], *(basis for row in phase_senders for basis in row)]


def _run_campaign(
    config: RunConfig, x: AmplitudeProfile, phases: PhaseProfile | PhaseShares
) -> list[ProtocolTranscript]:
    return protocol.run_protocol(x, phases, config.senders, config.mode, config.seed, config.trials, config.force)


@dataclass
class VerificationReport:
    config: dict
    engine_version: str
    branches: list[dict]
    basis_validation: dict[str, float]
    aggregates: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    passed: bool = False

    def to_dict(self) -> dict:
        return {
            "engine_version": self.engine_version,
            "config": self.config,
            "basis_validation": self.basis_validation,
            "aggregates": self.aggregates,
            "checks": self.checks,
            "passed": self.passed,
            "branches": self.branches,
        }


def _branch_row(t: ProtocolTranscript) -> dict:
    return {
        "outcome": t.outcome.digits(),
        "probability": t.probability,
        "correction": list(t.correction),
        "fidelity": t.fidelity,
        "classical_bits": t.classical_bits,
    }


def build_report(config: RunConfig, transcripts: list[ProtocolTranscript], basis_devs: dict[str, float]) -> VerificationReport:
    rows = [_branch_row(t) for t in transcripts]
    n = config.senders
    min_fid = min(r["fidelity"] for r in rows)
    prob_sum = sum(r["probability"] for r in rows)
    bases_pass = all(dev <= bases.NORM_TOL for dev in basis_devs.values())
    fid_pass = min_fid >= 1.0 - FIDELITY_TOL
    bits_pass = all(r["classical_bits"] == protocol.classical_cost(n) for r in rows)
    if config.mode == "exhaustive":
        rule = "sum-to-one"
        prob_pass = abs(prob_sum - 1.0) <= FIDELITY_TOL
    else:
        rule = "uniform-branch"
        prob_pass = all(abs(r["probability"] - 8.0**-n) <= FIDELITY_TOL for r in rows)
    report = VerificationReport(
        config=config.echo(),
        engine_version=__version__,
        branches=rows,
        basis_validation=basis_devs,
    )
    report.aggregates = {
        "branch_count": len(rows),
        "min_fidelity": min_fid,
        "probability_sum": prob_sum,
        "classical_bits_per_run": protocol.classical_cost(n),
    }
    report.checks = {
        "fidelity_pass": fid_pass,
        "probability_rule": rule,
        "probability_pass": prob_pass,
        "bases_pass": bases_pass,
        "bits_pass": bits_pass,
    }
    report.passed = fid_pass and prob_pass and bases_pass and bits_pass
    return report


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
    for row in report.branches:
        lines.append(
            f"{row['outcome']}\t{row['probability']!r}\t{' '.join(row['correction'])}"
            f"\t{row['fidelity']!r}\t{row['classical_bits']}"
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
    x, delta, shares = resolve_inputs(config)
    phases = delta if shares is None else shares
    basis_devs = {
        b.label: bases.validate_orthonormal(b).max_deviation for b in _collect_bases(config.senders, x, phases)
    }
    if not all(dev <= bases.NORM_TOL for dev in basis_devs.values()):
        report = VerificationReport(
            config=config.echo(), engine_version=__version__, branches=[], basis_validation=basis_devs
        )
        report.aggregates = {"branch_count": 0}
        report.checks = {"bases_pass": False}
        report.passed = False
        _write_output(render_report(report, config.fmt), config.out_path)
        return EXIT_VERIFY_FAIL, report
    transcripts = _run_campaign(config, x, phases)
    report = build_report(config, transcripts, basis_devs)
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
    lines = [f"# channel\t{t.channel}"]
    lines.append("party\tbasis\toutcome\tprobability")
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
    x, delta, shares = resolve_inputs(config)
    run_config = config if config.force is not None else replace(config, mode="sampled", trials=1)
    transcript = _run_campaign(run_config, x, delta if shares is None else shares)[0]
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
    for key in keys:
        lines.append(f"{''.join(map(str, key))}\t{' '.join(table.entries[key])}\t{table.fidelities[key]!r}")
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


def cli_entry() -> None:
    raise SystemExit(main())
