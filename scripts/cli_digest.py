"""Print the exit code and stdout digest of a fixed set of 477 CLI commands.

Each line is `<command>\t<exit code>\t<sha256 of stdout>`. Run it on two
versions of the package and `diff` the outputs to check that a change keeps
stdout and exit codes byte-identical:

    PYTHONPATH=<checkout of the parent commit>/src python3 scripts/cli_digest.py > before.txt
    PYTHONPATH=src python3 scripts/cli_digest.py > after.txt

The commands run in-process through `chi_jrsp.harness.main`, from a
temporary directory that holds the profile documents, so that the profile
paths echoed in the reports are the same on every run. Stderr is discarded.

The set:
- `verify --exhaustive`, N = 2, 3, seeds 0-39 (80);
- `verify --trials 30` and `run`, N = 2..5, seeds 0-39 (320);
- `verify --trials 20000 --seed 7`, N = 2..5 (4), which takes the sampler
  over many chunks and the renderer over many rows;
- `verify --trials T --seed 7` for T = 255, 256, 257, 513, N = 2, 5 (8):
  one chunk short of full, one full, one trial into the next chunk, and a
  short last chunk after two full ones;
- the table format of `verify --exhaustive`, `verify --trials 30` and `run`
  at seed 7 (10);
- `table`, N = 2, 3, in both formats (4);
- forced runs at N = 2, 3, 5, in both formats (18);
- six profile documents, each under `verify --exhaustive`,
  `verify --trials 30` and `run` (18), and the two with `x = e0` also under
  the table format of `verify --exhaustive` (2): on that degenerate
  profile several triples tie in the correction search, so its order shows;
- input errors (9);
- the report of a failed basis validation, with the amplitude basis
  perturbed by 1e-6, N = 2, 3, in both formats (4): every branch still
  runs, and the report lists all 64 or 512 of them with `bases_pass` false.
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
}


def commands() -> list[list[str]]:
    """Every command of the set but the perturbed-basis reports."""
    out = []
    for n in (2, 3):
        out += [["verify", "--senders", str(n), "--exhaustive", "--seed", str(s)] for s in range(40)]
    for n in range(2, 6):
        out += [["verify", "--senders", str(n), "--trials", "30", "--seed", str(s)] for s in range(40)]
        out += [["run", "--senders", str(n), "--seed", str(s)] for s in range(40)]
    out += [["verify", "--senders", str(n), "--trials", "20000", "--seed", "7"] for n in range(2, 6)]
    for n in (2, 5):
        out += [["verify", "--senders", str(n), "--trials", str(t), "--seed", "7"] for t in (255, 256, 257, 513)]
    out += [["verify", "--senders", str(n), "--exhaustive", "--seed", "7", "--format", "table"] for n in (2, 3)]
    for n in range(2, 6):
        out.append(["verify", "--senders", str(n), "--trials", "30", "--seed", "7", "--format", "table"])
        out.append(["run", "--senders", str(n), "--seed", "7", "--format", "table"])
    out += [["table", "--senders", str(n), "--format", fmt] for n in (2, 3) for fmt in ("structured", "table")]
    forced = {2: ("1:2", "0:0", "7:7"), 3: ("1:2,3", "0:0,0", "7:7,7"), 5: ("1:2,3,4,5", "0:0,0,0,0", "7:7,7,7,7")}
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
    out += [
        ["verify", "--senders", "1"],
        ["verify", "--senders", "6"],
        ["verify", "--senders", "4", "--exhaustive"],
        ["verify", "--trials", "0"],
        ["verify", "--seed", "-1"],
        ["run", "--force-outcome", "9:1"],
        ["run", "--senders", "3", "--force-outcome", "1:2"],
        ["verify", "--profile", "missing.json"],
        ["table", "--senders", "4"],
    ]
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout digest of one in-process CLI call."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = harness.main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    return code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()


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


def main() -> None:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, (_, doc) in PROFILES.items():
                with open(name, "w", encoding="utf-8") as f:
                    json.dump(doc, f)
            for argv in commands():
                lines.append((" ".join(argv), *run(argv)))
            with perturbed_amplitude_basis():
                for n in (2, 3):
                    for fmt in ("structured", "table"):
                        argv = ["verify", "--senders", str(n), "--exhaustive", "--seed", "1", "--format", fmt]
                        lines.append((" ".join(argv) + " [amplitude basis perturbed]", *run(argv)))
        finally:
            os.chdir(cwd)
    for command, code, digest in lines:
        print(f"{command}\t{code}\t{digest}")


if __name__ == "__main__":
    main()
