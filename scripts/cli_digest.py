"""Print the exit code and the stdout and stderr digests of a fixed set of
591 CLI commands, and the digest of the file that each `--out` command writes.

Each line is `<command>\t<exit code>\t<sha256 of stdout>\t<sha256 of
stderr>`, and for the `--out` commands also `\t<sha256 of the written
file>` (`-` where a failing command wrote none). Run it on two versions of
the package and `diff` the outputs to check that a change keeps stdout,
stderr and exit codes byte-identical:

    PYTHONPATH=<checkout of the parent commit>/src python3 scripts/cli_digest.py > before.txt
    PYTHONPATH=src python3 scripts/cli_digest.py > after.txt

The commands run in-process through `chi_jrsp.harness.main`, from a
temporary directory that holds the profile documents, so that the profile
paths echoed in the reports and error messages are the same on every run.

The set:
- `verify --exhaustive`, N = 2, 3, seeds 0-39, N = 4, seeds 0-9, and N = 5,
  seeds 0-1 (92);
- `verify --trials 30` and `run`, N = 2..5, seeds 0-39 (320);
- `verify --trials 20000 --seed 7`, N = 2..5 (4), which takes the sampler
  over many chunks and the renderer over many rows;
- `verify --trials T --seed 7` for T = 255, 256, 257, 513, N = 2, 5 (8):
  one chunk short of full, one full, one trial into the next chunk, and a
  short last chunk after two full ones;
- the table format of `verify --exhaustive`, `verify --trials 30` and `run`
  at seed 7, N = 2..5 (12);
- `table`, N = 2..5, in both formats (8);
- forced runs at N = 2..5, in both formats (24), each with the digit
  corners 0:0,... and 7:7,...;
- seven profile documents, each under `verify --exhaustive`,
  `verify --trials 30` and `run` (21), and the two with `x = e0` also under
  the table format of `verify --exhaustive` (2): on that degenerate
  profile several triples tie in the correction search, so its order shows.
  The seventh has an unnormalized `x`, so its three commands exit 2 with
  `amplitude profile not normalized: ...`;
- two zero-phase profile documents with x = (e0 + e1)/sqrt 2, N = 2, 3,
  under `verify --exhaustive` in both formats (4): the triples that tie on
  this profile differ in their X bits, where those of `x = e0` differ in
  their Z bits;
- a profile document whose shares lose precision when composed,
  fl(1e16 + 0.5) = 1e16, under `verify --exhaustive` and `run` (2): each
  exits 2, as its bases would carry a phase that its target drops;
- input errors (12), among them N = 6 under `verify --exhaustive` and
  `table`, `table --out` into a missing directory, an empty forced
  outcome, which must be parsed (and rejected), not taken for no flag, and
  the forced outcome `1:\u0663`, an Arabic-Indic three, which `int()` reads
  but the K:J1[,J2,...] grammar of ASCII digits does not;
- the report of a failed basis validation, with the amplitude basis
  perturbed by 1e-6, N = 2, 3, in both formats (4): every branch still
  runs, and the report lists all 64 or 512 of them with `bases_pass` false;
- `verify --exhaustive`, `run` and `table`, N = 2, 3, with one entry of
  `bases.SIGN_PATTERN` flipped (6): every phase basis fails its Gram check,
  so each exits 4 and names the first, `phase[k=0]` or `share[l=1,k=0]`;
- `verify --exhaustive` and `table`, N = 2, 3, with rows 1 and 2 of
  `bases.SIGN_PATTERN` swapped (4): the bases stay orthonormal but relabel
  the phase senders' outcomes, so the Pauli frame misses on some branches,
  and each exits 3 and names the first as an oracle failure;
- `verify --trials 30 --seed 7`, `verify --trials 257 --seed 7` and forced
  runs at the digit corners 0:0,... and 7:7,..., N = 2, 3, 5, under those
  swapped rows and under column 5 of `bases.SIGN_PATTERN` negated (24): both
  mutants keep every basis orthonormal and every middle sender's rows equal
  to its row 0 up to signs, so the sampler's step table holds. Under the
  swap every `verify` exits 3 and the corners, whose digits it keeps, pass;
  under the flip N = 2 exits 3, and N = 3, 5 pass, as their even number of
  phase senders cancel each other's signs;
- `verify --exhaustive` and `table`, N = 4, 5, under the same two mutants
  (8): the class grid keys its classes by the live rows' sign masks, so the
  swap misses on some branches and exits 3, and the flip passes at N = 5
  and misses at N = 4, where the three phase senders' signs do not cancel;
- `verify --exhaustive` and `table`, N = 2, 3, with columns 0 and 1 of
  `bases.SIGN_PATTERN` turned by 45 degrees (4): the bases stay orthonormal,
  but a phase sender's rows are no longer its row 0 up to signs, which the
  class grid refuses, so each exits 4;
- with entry (1, 0) of `bases.amplitude_basis_matrix` negated,
  `verify --exhaustive` and `run`, N = 2, 3, `table`, N = 2, 3, and
  `verify --exhaustive` of `delta2.json` (7): the magnitude sender's basis
  fails its check, which the profile reports as `amplitude profile not
  normalized: ...`, so the random profiles and `table` exit 4 and the
  profile document exits 2. `table` builds the profile of
  `protocol._TABLE_PROFILE`, so its two lines print that profile's deviation;
- `verify --senders 3 --exhaustive --seed 7`, `table --senders 3` and
  `verify --senders 5 --trials 100 --seed 7`, in both formats, each written
  through `--out` (6), as the benchmark writes its reports;
- `verify --senders 2 --exhaustive` on `prøfil.json`, whose report echoes
  that non-ASCII path: in the structured format to stdout and through
  `--out`, and in the table format through `--out` (3). The structured
  report's head writes the path with the escape `\u00f8`;
- `verify --senders 2 --exhaustive` on the path b"p\xff.json", which is not
  UTF-8, through `--out` in both formats (2): argv decodes it with
  surrogateescape, and the table report writes it back as its own bytes.
  The command is printed with the name escaped, `p\udcff.json`;
- argv that `harness._parse` hands to argparse (14): an `=` form, an
  abbreviation, an exclusive pair, a repeated option (the last value wins),
  a missing value, a stray word, a bad choice, a bad integer, a second
  exclusive pair, options another command lacks, `-h` at the top and after
  a command, and no arguments at all. Their usage, help and error bytes are
  argparse's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile

from chi_jrsp import bases, harness
from chi_jrsp.qstate import BasisSet

_X = [0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25, 0.0]
_DELTA = [0.0, 0.3, 0.7, 1.1, 1.9, 2.3, 2.9, 3.7]
_SHARES = [[0.0, 0.1, 0.3, 0.5, 0.9, 1.1, 1.4, 1.7], [0.0, 0.2, 0.4, 0.6, 1.0, 1.2, 1.5, 2.0]]
# Zero magnitudes, and phases near 1e6 rad.
_DEGENERATE = {
    "x": [0.6, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    "shares": [[0.0, 1e6, -1e6, 3.0, 0.0, 0.0, 0.0, 0.0], [0.0, 2.5, 1e6 + 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
}
_E0 = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
# File name -> (sender count, profile document).
PROFILES = {
    "delta2.json": (2, {"x": _X, "delta": _DELTA}),
    "both2.json": (2, {"x": _X, "delta": _DELTA, "shares": [_DELTA]}),
    "shares3.json": (3, {"x": _X, "shares": _SHARES}),
    "degenerate3.json": (3, _DEGENERATE),
    "e0_2.json": (2, {"x": _E0, "delta": _DELTA}),
    "e0_3.json": (3, {"x": _E0, "shares": _SHARES}),
    "unnormalized2.json": (2, {"x": [0.5] * 8, "delta": _DELTA}),
}
_E01 = [0.5**0.5, 0.5**0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
# Profiles run under `verify --exhaustive` alone, in both formats.
TIE_PROFILES = {
    "e01_2.json": (2, {"x": _E01, "delta": [0.0] * 8}),
    "e01_3.json": (3, {"x": _E01, "shares": [[0.0] * 8] * 2}),
}
# Shares whose sum drops a phase, fl(1e16 + 0.5) = 1e16: run under `verify --exhaustive` and `run` alone.
PRECISION_PROFILES = {
    "precision3.json": (3, {"x": [0.5] * 4 + [0.0] * 4, "shares": [[0.0, 1e16] + [0.0] * 6, [0.0, 0.5] + [0.0] * 6]}),
}
# A profile whose path, echoed in the report, is not ASCII: written through `--out`.
OUT_PROFILE = "prøfil.json"
# A profile whose path is not UTF-8, as argv decodes it: written through `--out`.
RAW_PROFILE = os.fsdecode(b"p\xff.json")


def commands() -> list[list[str]]:
    """Every command of the set but the perturbed-basis reports."""
    out = []
    for n, seeds in ((2, 40), (3, 40), (4, 10), (5, 2)):
        out += [["verify", "--senders", str(n), "--exhaustive", "--seed", str(s)] for s in range(seeds)]
    for n in range(2, 6):
        out += [["verify", "--senders", str(n), "--trials", "30", "--seed", str(s)] for s in range(40)]
        out += [["run", "--senders", str(n), "--seed", str(s)] for s in range(40)]
    out += [["verify", "--senders", str(n), "--trials", "20000", "--seed", "7"] for n in range(2, 6)]
    for n in (2, 5):
        out += [["verify", "--senders", str(n), "--trials", str(t), "--seed", "7"] for t in (255, 256, 257, 513)]
    for n in range(2, 6):
        out.append(["verify", "--senders", str(n), "--exhaustive", "--seed", "7", "--format", "table"])
        out.append(["verify", "--senders", str(n), "--trials", "30", "--seed", "7", "--format", "table"])
        out.append(["run", "--senders", str(n), "--seed", "7", "--format", "table"])
    out += [["table", "--senders", str(n), "--format", fmt] for n in range(2, 6) for fmt in ("structured", "table")]
    forced = {
        2: ("1:2", "0:0", "7:7"),
        3: ("1:2,3", "0:0,0", "7:7,7"),
        4: ("1:2,3,4", "0:0,0,0", "7:7,7,7"),
        5: ("1:2,3,4,5", "0:0,0,0,0", "7:7,7,7,7"),
    }
    for fmt in ([], ["--format", "table"]):
        out += [
            ["run", "--senders", str(n), "--force-outcome", o, *fmt] for n, outcomes in forced.items() for o in outcomes
        ]
    for name, (n, _) in PROFILES.items():
        common = ["--senders", str(n), "--profile", name]
        out += [["verify", *common, "--exhaustive"], ["verify", *common, "--trials", "30", "--seed", "3"],
                ["run", *common, "--seed", "3"]]
    for n in (2, 3):
        out.append(["verify", "--senders", str(n), "--profile", f"e0_{n}.json", "--exhaustive", "--format", "table"])
    for name, (n, _) in TIE_PROFILES.items():
        out += [["verify", "--senders", str(n), "--profile", name, "--exhaustive", "--format", fmt]
                for fmt in ("structured", "table")]
    for name, (n, _) in PRECISION_PROFILES.items():
        out += [["verify", "--senders", str(n), "--profile", name, "--exhaustive"],
                ["run", "--senders", str(n), "--profile", name]]
    out.append(["verify", "--senders", "2", "--exhaustive", "--profile", OUT_PROFILE])
    out += [
        ["verify", "--senders", "1"],
        ["verify", "--senders", "6"],
        ["verify", "--senders", "6", "--exhaustive"],
        ["verify", "--trials", "0"],
        ["verify", "--seed", "-1"],
        ["run", "--force-outcome", "9:1"],
        ["run", "--senders", "3", "--force-outcome", "1:2"],
        ["run", "--force-outcome", ""],
        ["run", "--force-outcome", "1:\u0663"],
        ["verify", "--profile", "missing.json"],
        ["table", "--senders", "6"],
        ["table", "--senders", "2", "--out", "missing/r.json"],
    ]
    out += [
        ["verify", "--senders=3", "--exhaustive"],
        ["verify", "--sen", "3", "--exhaustive"],
        ["verify", "--exhaustive", "--trials", "5"],
        ["verify", "--trials", "5", "--trials", "7", "--seed", "1"],
        ["verify", "--out"],
        ["verify", "extra"],
        ["verify", "--format", "xml"],
        ["verify", "--senders", "three"],
        ["verify", "--profile", "p.json", "--random"],
        ["run", "--trials", "3"],
        ["table", "--seed", "1"],
        ["-h"],
        ["verify", "-h"],
        [],
    ]
    return out


def out_commands() -> list[list[str]]:
    """The commands that write their output through `--out`."""
    campaigns = [
        ["verify", "--senders", "3", "--exhaustive", "--seed", "7"],
        ["table", "--senders", "3"],
        ["verify", "--senders", "5", "--trials", "100", "--seed", "7"],
    ]
    out = [[*argv, "--format", fmt] for argv in campaigns for fmt in ("structured", "table")]
    return [*out, *(["verify", "--senders", "2", "--exhaustive", "--profile", name, "--format", fmt]
                    for name in (OUT_PROFILE, RAW_PROFILE) for fmt in ("structured", "table"))]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout digest and stderr digest of one in-process CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = harness.main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    return code, *(hashlib.sha256(text.getvalue().encode()).hexdigest() for text in (stdout, stderr))


@contextlib.contextmanager
def perturbed_amplitude_basis():
    """Build every amplitude basis with entry (0, 0) off by 1e-6, unchecked."""
    real = bases.amplitude_basis

    def perturbed(profile):
        v = real(profile).vectors.copy()
        v[0, 0] += 1e-6
        return BasisSet(v, label="amplitude", check=False)

    bases.amplitude_basis = perturbed
    try:
        yield
    finally:
        bases.amplitude_basis = real


@contextlib.contextmanager
def sign_pattern(change):
    """Build every phase basis under a copy of SIGN_PATTERN that `change` edits."""
    real = bases.SIGN_PATTERN
    try:
        bases.SIGN_PATTERN = real.copy()
        change(bases.SIGN_PATTERN)
        yield
    finally:
        bases.SIGN_PATTERN = real


@contextlib.contextmanager
def negated_layout_entry():
    """Build every amplitude layout with entry (1, 0) negated."""
    real = bases.amplitude_basis_matrix

    def negated(profile):
        f = real(profile)
        f[1, 0] = -f[1, 0]
        return f

    bases.amplitude_basis_matrix = negated
    try:
        yield
    finally:
        bases.amplitude_basis_matrix = real


def flip_entry(pattern):
    pattern[2, 5] *= -1


def swap_rows(pattern):
    pattern[[1, 2]] = pattern[[2, 1]]


def flip_column(pattern):
    pattern[:, 5] *= -1


def turn_columns(pattern):
    """SIGN_PATTERN @ G for G the 45-degree Givens rotation of columns 0 and 1: orthogonal, not +-1."""
    c = 0.5**0.5
    pattern[:, :2] = pattern[:, :2] @ [[c, -c], [c, c]]


def sampler_commands() -> list[list[str]]:
    """The sampled and forced commands run under a +-1 mutant of SIGN_PATTERN."""
    out = []
    for n in (2, 3, 5):
        out += [["verify", "--senders", str(n), "--trials", t, "--seed", "7"] for t in ("30", "257")]
        out += [["run", "--senders", str(n), "--force-outcome", f"{d}:{','.join(str(d) * (n - 1))}"] for d in (0, 7)]
    return out


def main() -> None:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            documents = {**PROFILES, **TIE_PROFILES, **PRECISION_PROFILES, OUT_PROFILE: PROFILES["delta2.json"],
                         RAW_PROFILE: PROFILES["delta2.json"]}
            for name, (_, doc) in documents.items():
                with open(name, "w", encoding="utf-8") as f:
                    json.dump(doc, f)
            for argv in commands():
                lines.append((" ".join(argv), *run(argv)))
            with perturbed_amplitude_basis():
                for n in (2, 3):
                    for fmt in ("structured", "table"):
                        argv = ["verify", "--senders", str(n), "--exhaustive", "--seed", "1", "--format", fmt]
                        lines.append((" ".join(argv) + " [amplitude basis perturbed]", *run(argv)))
            with sign_pattern(flip_entry):
                for n in (2, 3):
                    for argv in (["verify", "--senders", str(n), "--exhaustive", "--seed", "1"],
                                 ["run", "--senders", str(n), "--seed", "1"], ["table", "--senders", str(n)]):
                        lines.append((" ".join(argv) + " [sign pattern flipped]", *run(argv)))
            with sign_pattern(swap_rows):
                for n in (2, 3):
                    for argv in (["verify", "--senders", str(n), "--exhaustive", "--seed", "1"],
                                 ["table", "--senders", str(n)]):
                        lines.append((" ".join(argv) + " [sign pattern rows swapped]", *run(argv)))
            for change, tag in ((swap_rows, "rows swapped"), (flip_column, "column flipped")):
                with sign_pattern(change):
                    for argv in sampler_commands():
                        lines.append((" ".join(argv) + f" [sign pattern {tag}]", *run(argv)))
                    for n in (4, 5):
                        for argv in (["verify", "--senders", str(n), "--exhaustive", "--seed", "7"],
                                     ["table", "--senders", str(n)]):
                            lines.append((" ".join(argv) + f" [sign pattern {tag}]", *run(argv)))
            with sign_pattern(turn_columns):
                for n in (2, 3):
                    for argv in (["verify", "--senders", str(n), "--exhaustive", "--seed", "7"],
                                 ["table", "--senders", str(n)]):
                        lines.append((" ".join(argv) + " [sign pattern columns turned]", *run(argv)))
            with negated_layout_entry():
                for argv in (
                    *(["verify", "--senders", str(n), "--exhaustive", "--seed", "1"] for n in (2, 3)),
                    *(["run", "--senders", str(n), "--seed", "1"] for n in (2, 3)),
                    *(["table", "--senders", str(n)] for n in (2, 3)),
                    ["verify", "--senders", "2", "--profile", "delta2.json", "--exhaustive"],
                ):
                    lines.append((" ".join(argv) + " [amplitude layout entry negated]", *run(argv)))
            for argv in out_commands():
                code, stdout, stderr = run([*argv, "--out", "report.out"])
                written = "-"
                if os.path.exists("report.out"):
                    with open("report.out", "rb") as f:
                        written = hashlib.sha256(f.read()).hexdigest()
                    os.remove("report.out")
                lines.append((" ".join(argv) + " --out", code, stdout, stderr, written))
        finally:
            os.chdir(cwd)
    for line in lines:
        # A lone surrogate, from a name that is not UTF-8, is printed as its escape.
        print("\t".join(map(str, line)).encode("utf-8", "backslashreplace").decode())


if __name__ == "__main__":
    main()
