import contextlib
import errno
import functools
import hashlib
import io
import json
import locale
import math
import operator
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chi_jrsp.bases as bases_mod
from chi_jrsp import harness, protocol
from chi_jrsp.harness import (
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_ORACLE_ERROR,
    EXIT_PASS,
    EXIT_VERIFY_FAIL,
    ProfileError,
    RunConfig,
    build_report,
    cmd_run,
    cmd_table,
    cmd_verify,
    load_profile,
    main,
    parse_force,
    resolve_inputs,
)
from chi_jrsp.bases import PhaseProfile, compose_phases
from chi_jrsp.qstate import BasisSet

INV_2SQRT2 = 1.0 / (2.0 * np.sqrt(2.0))


def write_profile(tmp_path, doc, name="profile.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def valid_doc():
    x = list(np.arange(1.0, 9.0) / np.linalg.norm(np.arange(1.0, 9.0)))
    return {"x": x, "delta": [0.0, 0.3, 0.7, 1.1, 1.9, 2.3, 2.9, 3.7]}


class TestLoadProfile:
    def test_round_trip(self, tmp_path):
        doc = valid_doc()
        x, phases = load_profile(write_profile(tmp_path, doc), senders=2)
        assert np.allclose(x.x, doc["x"])
        assert isinstance(phases, PhaseProfile)
        assert np.allclose(phases.delta, doc["delta"])

    def test_rejects_unnormalized_x(self, tmp_path):
        doc = valid_doc()
        doc["x"] = [v * 0.9 for v in doc["x"]]
        with pytest.raises(ProfileError, match="normalized"):
            load_profile(write_profile(tmp_path, doc), senders=2)

    def test_rejects_nonzero_first_phase(self, tmp_path):
        doc = valid_doc()
        doc["delta"][0] = 0.5
        with pytest.raises(ProfileError, match="entry 0"):
            load_profile(write_profile(tmp_path, doc), senders=2)

    def test_rejects_missing_fields(self, tmp_path):
        with pytest.raises(ProfileError, match="missing field 'x'"):
            load_profile(write_profile(tmp_path, {"delta": [0.0] * 8}), senders=2)
        with pytest.raises(ProfileError, match="'delta' or 'shares'"):
            load_profile(write_profile(tmp_path, {"x": valid_doc()["x"]}), senders=2)

    def test_rejects_unknown_field(self, tmp_path):
        doc = valid_doc()
        doc["extra"] = 1
        with pytest.raises(ProfileError, match="unknown"):
            load_profile(write_profile(tmp_path, doc), senders=2)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProfileError, match="JSON"):
            load_profile(str(path), senders=2)

    def test_shares_compose_to_delta(self, tmp_path):
        doc = valid_doc()
        half = [v / 2 for v in doc["delta"]]
        doc["shares"] = [half, half]
        x, phases = load_profile(write_profile(tmp_path, doc), senders=3)
        assert phases.n_senders == 3
        assert np.allclose(compose_phases(phases).delta, doc["delta"])

    def test_inconsistent_shares_rejected(self, tmp_path):
        doc = valid_doc()
        doc["shares"] = [[0.0, 1, 1, 1, 1, 1, 1, 1], [0.0, 1, 1, 1, 1, 1, 1, 1]]
        with pytest.raises(ProfileError, match="compose"):
            load_profile(write_profile(tmp_path, doc), senders=3)

    def test_shares_that_lose_precision_when_composed_rejected(self, tmp_path, capsys):
        # fl(1e16 + 0.5) == 1e16: the composed target drops the 0.5 rad that
        # the second sender's bases still carry, so every correction would miss.
        doc = {"x": [0.5] * 4 + [0.0] * 4, "shares": [[0.0, 1e16] + [0.0] * 6, [0.0, 0.5] + [0.0] * 6]}
        path = write_profile(tmp_path, doc)
        with pytest.raises(ProfileError, match="lose precision when composed: .* off by 0.495"):
            load_profile(path, senders=3)
        for argv in (["verify", "--exhaustive"], ["run"]):
            assert main([*argv, "--senders", "3", "--profile", path]) == EXIT_INPUT_ERROR
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: 'shares' lose precision")
        # Phases near 1e6 rad compose within an ulp of their unit phases' product.
        doc["shares"] = [[0.0, 1e6, -1e6, 3.0, 0, 0, 0, 0], [0.0, 2.5, 1e6 + 1.0, 0, 0, 0, 0, 0]]
        assert load_profile(write_profile(tmp_path, doc), senders=3)[1].n_senders == 3

    def test_share_row_count_must_match_senders(self, tmp_path):
        doc = valid_doc()
        del doc["delta"]
        doc["shares"] = [[0.0, 1, 2, 3, 4, 5, 6, 7]]
        with pytest.raises(ProfileError, match="rows"):
            load_profile(write_profile(tmp_path, doc), senders=3)

    def test_multi_sender_needs_shares(self, tmp_path):
        with pytest.raises(ProfileError, match="shares"):
            load_profile(write_profile(tmp_path, valid_doc()), senders=3)


class TestRunConfig:
    def test_exhaustive_allowed_at_every_sender_count(self):
        # One sender bound, 2..MAX_SENDERS, governs every mode.
        for n in range(2, protocol.MAX_SENDERS + 1):
            assert RunConfig(senders=n, mode="exhaustive").senders == n
        with pytest.raises(ProfileError, match=r"senders must be in 2\.\.5, got 6"):
            RunConfig(senders=6, mode="exhaustive")

    @pytest.mark.parametrize(("mode", "trials"), [("exhaustive", 1), ("sampled", 30)])
    def test_force_excludes_campaigns(self, mode, trials):
        # A forced outcome runs one branch: a campaign around it would report
        # that branch as a failed exhaustive sum or under the wrong trial count.
        with pytest.raises(ProfileError, match="a forced outcome runs one branch"):
            RunConfig(senders=2, mode=mode, trials=trials, force=(1, (2,)))

    def test_exhaustive_excludes_a_trial_count(self):
        # An exhaustive run enumerates every branch: its report would echo
        # the trial count over all 64 of them.
        with pytest.raises(ProfileError, match="an exhaustive run enumerates every branch, not 30 trials"):
            RunConfig(senders=2, mode="exhaustive", trials=30)
        assert RunConfig(senders=2, mode="exhaustive", trials=1).trials == 1

    def test_trials_positive(self):
        with pytest.raises(ProfileError):
            RunConfig(trials=0)

    def test_format_checked(self):
        with pytest.raises(ProfileError):
            RunConfig(fmt="csv")

    def test_sender_range(self):
        with pytest.raises(ProfileError):
            RunConfig(senders=1)
        with pytest.raises(ProfileError):
            RunConfig(senders=6)

    def test_random_inputs_seeded(self):
        config = RunConfig(senders=3, seed=5)
        a = resolve_inputs(config)
        b = resolve_inputs(config)
        assert np.array_equal(a[0].x, b[0].x)
        assert np.array_equal(a[1].shares, b[1].shares)


def hand_branches(probabilities: list[float], fidelities: list[float], n: int = 2) -> protocol.Branches:
    """A Branches record with these probability and fidelity columns; every
    other column is a placeholder that the report does not judge."""
    rows = len(probabilities)
    steps = np.ones((rows, n))
    steps[:, 0] = probabilities
    return protocol.Branches(
        labels=[["amplitude"] * 8] * n,
        outcomes=np.zeros((rows, n), dtype=np.intp),
        steps=steps,
        triples=np.zeros(rows, dtype=np.intp),
        corrected=np.zeros((rows, 8), dtype=complex),
        fidelities=np.array(fidelities, dtype=float),
    )


class TestReportAggregates:
    """`build_report` judges its columns with Python's semantics: a
    left-to-right sum, Python's `min`, and a probability check per row."""

    def test_probability_sum_adds_left_to_right(self):
        column = [1.0] + [1e-16] * 16
        left_to_right = functools.reduce(operator.add, column)
        assert left_to_right == 1.0 and float(np.sum(column)) > 1.0  # pairwise: 1.0000000000000016
        run = hand_branches(column, [1.0] * len(column))
        report = build_report(RunConfig(senders=2, mode="exhaustive"), {}, run)
        assert report.aggregates["probability_sum"] == left_to_right
        assert type(report.aggregates["probability_sum"]) is float

    @pytest.mark.parametrize(
        "column, expected",
        [
            ([math.nan, 1.0, 0.5], math.nan),
            ([1.0, math.nan, 0.5], 0.5),
            ([1.0, 0.5, 0.75], 0.5),
            ([1.0, math.nan, 1.0], 1.0),
        ],
        ids=["nan-first", "nan-middle", "no-nan", "nan-among-ones"],
    )
    def test_min_fidelity_is_python_min(self, column, expected):
        report = build_report(RunConfig(senders=2, mode="exhaustive"), {}, hand_branches([1 / 3] * 3, column))
        got = report.aggregates["min_fidelity"]
        assert got == expected or (math.isnan(got) and math.isnan(expected))
        assert type(got) is float
        assert report.checks["fidelity_pass"] is False

    @pytest.mark.parametrize(
        "offsets, passed",
        [([0.0, 0.0], True), ([9e-11, -9e-11], True), ([2e-10, -2e-10], False), ([0.0, math.nan], False)],
        ids=["exact", "within", "off-in-opposite-directions", "nan"],
    )
    def test_uniform_branch_judges_every_row(self, offsets, passed):
        # The two rows of the third case are off by twice the tolerance in
        # opposite directions, so their sum and their mean are uniform.
        column = [1 / 64 + d for d in offsets]
        report = build_report(RunConfig(senders=2, trials=2), {}, hand_branches(column, [1.0, 1.0]))
        assert report.checks["probability_rule"] == "uniform-branch"
        assert report.checks["probability_pass"] is passed
        assert report.passed is passed

    def test_report_keeps_the_engine_columns(self):
        x, phases = bases_mod.random_inputs(3, 6)
        config = RunConfig(senders=3, mode="exhaustive", seed=6)
        run = protocol.run_branches(x, phases, protocol.measurement_bases(x, phases, 3), "exhaustive", 6, 1, None)
        report = build_report(config, {}, run)
        assert report.outcomes is run.outcomes and report.triples is run.triples
        assert report.fidelities is run.fidelities
        assert np.array_equal(report.probabilities, run.probabilities)
        assert report.corrections == run.corrections


class TestCmdVerify:
    def test_two_sender_exhaustive_passes(self, tmp_path):
        out = tmp_path / "report.json"
        config = RunConfig(senders=2, mode="exhaustive", seed=11, out_path=str(out))
        status, report = cmd_verify(config)
        assert status == EXIT_PASS
        assert report.passed
        assert report.aggregates["branch_count"] == 64
        assert report.aggregates["min_fidelity"] >= 1 - 1e-10
        assert report.aggregates["probability_sum"] == pytest.approx(1.0, abs=1e-10)
        assert report.aggregates["classical_bits_per_run"] == 6
        doc = json.loads(out.read_text())
        assert doc["engine_version"]
        assert len(doc["branches"]) == 64

    def test_aggregates_recomputable_from_branches(self, tmp_path):
        out = tmp_path / "report.json"
        status, _ = cmd_verify(RunConfig(senders=2, mode="exhaustive", seed=3, out_path=str(out)))
        assert status == EXIT_PASS
        doc = json.loads(out.read_text())
        rows = doc["branches"]
        assert doc["aggregates"]["branch_count"] == len(rows)
        assert doc["aggregates"]["min_fidelity"] == min(r["fidelity"] for r in rows)
        assert doc["aggregates"]["probability_sum"] == pytest.approx(
            sum(r["probability"] for r in rows), abs=1e-15
        )

    def test_byte_identical_reports(self, tmp_path):
        for fmt in ("structured", "table"):
            paths = []
            for name in ("a.out", "b.out"):
                out = tmp_path / f"{fmt}-{name}"
                cmd_verify(RunConfig(senders=2, mode="exhaustive", seed=7, out_path=str(out), fmt=fmt))
                paths.append(out.read_bytes())
            assert paths[0] == paths[1]

    def test_three_sender_exhaustive_passes(self, tmp_path):
        out = tmp_path / "report3.json"
        status, report = cmd_verify(RunConfig(senders=3, mode="exhaustive", seed=2, out_path=str(out)))
        assert status == EXIT_PASS
        assert report.aggregates["branch_count"] == 512
        assert report.aggregates["classical_bits_per_run"] == 9

    def test_five_sender_sampled_passes(self, tmp_path):
        out = tmp_path / "report5.json"
        config = RunConfig(senders=5, mode="sampled", trials=30, seed=9, out_path=str(out))
        status, report = cmd_verify(config)
        assert status == EXIT_PASS
        assert report.aggregates["branch_count"] == 30
        assert report.aggregates["classical_bits_per_run"] == 15
        assert report.checks["probability_rule"] == "uniform-branch"

    def test_profile_file_run(self, tmp_path):
        path = write_profile(tmp_path, valid_doc())
        out = tmp_path / "report.json"
        status, report = cmd_verify(
            RunConfig(senders=2, mode="exhaustive", profile_path=path, out_path=str(out))
        )
        assert status == EXIT_PASS and report.passed

    def test_unnormalized_profile_rejected_before_simulation(self, tmp_path):
        doc = valid_doc()
        doc["x"] = [v * 0.9 for v in doc["x"]]
        path = write_profile(tmp_path, doc)
        with pytest.raises(ProfileError):
            cmd_verify(RunConfig(senders=2, mode="exhaustive", profile_path=path))

    def test_amplitude_basis_built_once(self, monkeypatch):
        # The profile's normalization check builds it, and the run and the
        # report use that one basis.
        real = bases_mod.amplitude_basis
        built = []
        monkeypatch.setattr(bases_mod, "amplitude_basis", lambda profile: built.append(real(profile)) or built[-1])
        status, report = cmd_verify(RunConfig(senders=3, mode="exhaustive", seed=1, out_path=os.devnull))
        assert status == EXIT_PASS
        assert len(built) == 1
        assert report.basis_validation["amplitude"] == built[0].deviation

    def test_basis_perturbation_flips_failure(self, tmp_path, monkeypatch):
        real = bases_mod.amplitude_basis

        def perturbed(profile):
            v = real(profile).vectors.copy()
            v[0, 0] += 1e-6
            return BasisSet(v, label="amplitude", check=False)

        monkeypatch.setattr(bases_mod, "amplitude_basis", perturbed)
        out = tmp_path / "bad.json"
        status, report = cmd_verify(RunConfig(senders=2, mode="exhaustive", seed=1, out_path=str(out)))
        assert status == EXIT_VERIFY_FAIL
        assert not report.passed
        assert report.basis_validation["amplitude"] >= 1e-7

    def test_basis_failure_report(self, tmp_path, monkeypatch):
        # A failed basis does not stop the campaign: every branch runs, and the
        # report judges the bases through its bases_pass check.
        real = bases_mod.amplitude_basis

        def perturbed(profile):
            v = real(profile).vectors.copy()
            v[0, 0] += 1e-6
            return BasisSet(v, label="amplitude", check=False)

        monkeypatch.setattr(bases_mod, "amplitude_basis", perturbed)
        out = tmp_path / "bad.tsv"
        config = RunConfig(senders=2, mode="exhaustive", seed=1, out_path=str(out), fmt="table")
        status, report = cmd_verify(config)
        assert status == EXIT_VERIFY_FAIL
        assert not report.passed
        assert report.aggregates["branch_count"] == 64
        assert report.checks["bases_pass"] is False
        assert report.basis_validation["amplitude"] >= 1e-7
        assert len(report.outcomes) == len(report.to_dict()["branches"]) == 64
        assert list(report.to_dict()) == [
            "engine_version", "config", "basis_validation", "aggregates", "checks", "passed", "branches",
        ]
        lines = out.read_text().splitlines()
        assert "# check.bases_pass\tFalse" in lines
        assert "# aggregate.branch_count\t64" in lines
        assert len(lines) == lines.index("outcome\tprobability\tcorrection\tfidelity\tclassical_bits") + 65

    def test_verify_builds_no_transcripts(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("verify built a ProtocolTranscript")

        monkeypatch.setattr(protocol, "ProtocolTranscript", refuse)
        assert main(["verify", "--senders", "3", "--exhaustive", "--seed", "4"]) == EXIT_PASS
        assert main(["verify", "--senders", "5", "--trials", "20", "--seed", "4"]) == EXIT_PASS


class TestCmdRun:
    def test_seeded_run_is_byte_identical(self, tmp_path):
        texts = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            status, _ = cmd_run(RunConfig(senders=2, seed=42, out_path=str(out)))
            assert status == EXIT_PASS
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_forced_outcome_correction(self, tmp_path):
        out = tmp_path / "forced.json"
        status, transcript = cmd_run(
            RunConfig(senders=2, seed=0, force=(1, (2,)), out_path=str(out))
        )
        assert status == EXIT_PASS
        assert transcript.correction == ("Z", "Z", "X")
        doc = json.loads(out.read_text())
        assert doc["correction"] == ["Z", "Z", "X"]
        assert doc["outcome"] == "12"
        assert doc["classical_bits"] == 6

    def test_force_digit_count_checked(self):
        with pytest.raises(ProfileError):
            cmd_run(RunConfig(senders=3, force=(1, (2,))))

    @pytest.mark.parametrize("campaign", [{"mode": "exhaustive"}, {"trials": 50}], ids=["exhaustive", "50 trials"])
    def test_run_takes_one_branch(self, campaign, tmp_path):
        # A run prints one transcript, so it runs one sampled trial or a
        # forced outcome, never a campaign of which it would print row 0.
        out = tmp_path / "run.json"
        with pytest.raises(ProfileError, match="run executes one branch, not mode"):
            cmd_run(RunConfig(senders=2, out_path=str(out), **campaign))
        assert not out.exists()

    @pytest.mark.parametrize("force", [(1, (-3,)), (-1, (2,)), (8, (0,)), (0, (8,))])
    def test_force_digit_range_checked(self, force, tmp_path):
        # A negative digit would run the branch it indexes from the end and
        # write an outcome like "1-3"; nothing may be written.
        out = tmp_path / "forced.json"
        with pytest.raises(ProfileError, match="must be in 0..7"):
            cmd_run(RunConfig(senders=2, force=force, out_path=str(out)))
        assert not out.exists()

    def test_chi_fixture_final_state(self, tmp_path):
        doc = {"x": [INV_2SQRT2] * 8, "delta": [0.0, np.pi, np.pi, 0, 0, 0, 0, 0]}
        path = write_profile(tmp_path, doc)
        status, transcript = cmd_run(
            RunConfig(senders=2, seed=5, profile_path=path, out_path=str(tmp_path / "chi.json"))
        )
        assert status == EXIT_PASS
        expected = np.zeros(16, dtype=complex)
        for idx, sign in zip((0, 3, 5, 6, 9, 10, 12, 15), (1, -1, -1, 1, 1, 1, 1, 1)):
            expected[idx] = sign * INV_2SQRT2
        overlap = abs(np.vdot(expected, transcript.final_state.amps)) ** 2
        assert overlap >= 1 - 1e-10


class TestCmdTable:
    def test_two_sender_structured(self, tmp_path):
        out = tmp_path / "table.json"
        status, table = cmd_table(RunConfig(senders=2, out_path=str(out)))
        assert status == EXIT_PASS
        doc = json.loads(out.read_text())
        entries = {e["outcome"]: e for e in doc["entries"]}
        assert len(entries) == 64
        assert entries["00"]["correction"] == ["I", "I", "I"]
        assert entries["12"]["correction"] == ["Z", "Z", "X"]
        assert all(e["fidelity"] >= 1 - 1e-10 for e in entries.values())

    def test_delimited_format_and_determinism(self, tmp_path):
        texts = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            cmd_table(RunConfig(senders=2, fmt="table", out_path=str(out)))
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        lines = texts[0].splitlines()
        assert lines[0] == "outcome\tcorrection\tfidelity"
        assert lines[1].startswith("00\tI I I\t")

    def test_four_senders_enumerated(self, tmp_path):
        status, table = cmd_table(RunConfig(senders=4, fmt="table", out_path=str(tmp_path / "t4.tsv")))
        assert status == EXIT_PASS
        assert len(table.corrections) == table.fidelities.size == 8**4
        assert table.fidelities.min() >= 1 - protocol.FIDELITY_TOL
        assert len((tmp_path / "t4.tsv").read_text().splitlines()) == 1 + 8**4

    def test_correction_failing_the_check_profile_is_oracle_failure(self, monkeypatch, capsys):
        # The frame of outcome (0, 5), the one branch of its class at two
        # senders, takes one more Z on the last receiver qubit (its code's
        # Walsh bits XOR 1, its sign mask kept), which the table's profile
        # rejects. The outcome prints as plain ints.
        real = protocol._corrections

        def shifted(outcomes, finals, code, target3):
            code = code.copy()
            code[5] ^= 1
            return real(outcomes, finals, code, target3)

        monkeypatch.setattr(protocol, "_corrections", shifted)
        assert main(["table", "--senders", "2"]) == EXIT_ORACLE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "oracle failure: correction ('Z', 'Z', 'Z') for outcome (0, 5) misses the target"
            " (fidelity 0.003628923136128456)\n"
        )


class TestForceParsing:
    def test_parse(self):
        assert parse_force("1:3") == (1, (3,))
        assert parse_force("0:1,2,3") == (0, (1, 2, 3))

    def test_rejects_garbage(self):
        with pytest.raises(ProfileError):
            parse_force("1-3")

    @pytest.mark.parametrize(
        "text", ["1:\u0663", "1:2_3", "1:+2", " 1:2", "1:2 ", "\uff11:2", "1:2,", "1:" + "9" * 5000]
    )
    def test_rejects_what_int_reads_outside_the_grammar(self, text):
        # Every field is ASCII decimal digits: int() alone would read an
        # Arabic-Indic three, "_" separators, signs and spaces. A field past
        # int()'s digit limit is rejected the same way.
        with pytest.raises(ProfileError, match=r"^cannot parse forced outcome '.*': expected K:J1\[,J2,\.\.\.\]$"):
            parse_force(text)

    def test_digit_range_is_a_config_check(self):
        # parse_force reads the digits; RunConfig checks their range for every caller.
        assert parse_force("9:1") == (9, (1,))
        with pytest.raises(ProfileError, match=r"forced outcome digits must be in 0\.\.7, got '9:1'"):
            RunConfig(senders=2, force=(9, (1,)))


# The sha256 of stdout for each argv of `TestMain.test_report_and_table_bytes_pinned`. The argv alone
# names each case, so a planned re-pin keeps the test id (so does the sender count of the sampled pins).
REPORT_PINS = [
    (
        "verify --senders 3 --exhaustive --seed 7",
        "73940ee0fc3b8b994e316e0514088337c7c8e9fa5425daa49e892082411f9f60",
    ),
    (
        "verify --senders 2 --exhaustive --seed 7 --format table",
        "ed7aaadb4275a8f84846a4a6a3e0a45e8828600393de347fcab3611b5b2a06cc",
    ),
    ("table --senders 3", "9ad082bdcd9e3b2cdea165fca7ebe5ab29eabeeb2289ad58d06ed75f202d5591"),
    ("table --senders 3 --format table", "f9abfc046c9ec7d33397caaa7f6c706fff907e872e41c9b700210a17ded60c76"),
    ("run --senders 3 --seed 7", "fd3c16daa5969126b5578fc71d224f1cf9c6df1b1173151d02eaadce81698467"),
    (
        "run --senders 3 --seed 7 --format table",
        "feae02cd56a97dd638abbc7c4b3ebe41f25d06a56449fb83cca6e341a7afdd22",
    ),
    (
        "run --senders 5 --force-outcome 1:2,3,4,5",
        "231594b0ca81889b3e0a7aa0117852d0f093dd3592e77fcd11e0e10a692a5bbf",
    ),
    (
        "run --senders 5 --force-outcome 1:2,3,4,5 --format table",
        "5fc9a38e747e8b24d4ce93c13204e6b9f415ea617e4ff7f6d15ec258880ee1d7",
    ),
]


class TestMain:
    def test_verify_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["verify", "--senders", "2", "--exhaustive", "--seed", "1", "--random", "--out", str(out)])
        assert code == EXIT_PASS
        assert out.exists()

    def test_verify_stdout(self, capsys):
        code = main(["verify", "--senders", "2", "--exhaustive", "--seed", "1"])
        assert code == EXIT_PASS
        assert '"passed": true' in capsys.readouterr().out

    def test_input_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = main(["verify", "--profile", str(bad)])
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("senders", [4, 5])
    def test_exhaustive_at_every_sender_count(self, senders, capsys):
        assert main(["verify", "--senders", str(senders), "--exhaustive", "--seed", "7"]) == EXIT_PASS
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["aggregates"]["branch_count"] == len(doc["branches"]) == 8**senders

    def test_exhaustive_beyond_max_senders_is_usage_error(self, capsys):
        assert main(["verify", "--senders", "6", "--exhaustive"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: senders must be in 2..5, got 6\n"

    def test_run_with_force(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(["run", "--senders", "2", "--seed", "3", "--force-outcome", "1:2", "--out", str(out)])
        assert code == EXIT_PASS
        assert json.loads(out.read_text())["correction"] == ["Z", "Z", "X"]

    def test_run_force_wrong_arity(self, capsys):
        code = main(["run", "--senders", "3", "--force-outcome", "1:2"])
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("argv", [["--force-outcome", ""], ["--force-outcome="]], ids=["direct", "argparse"])
    def test_run_force_empty_is_input_error(self, argv, capsys):
        # An empty forced outcome is parsed, and rejected, not taken as no flag.
        assert main(["run", *argv]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot parse forced outcome '': expected K:J1[,J2,...]\n"

    def test_table_command(self, tmp_path):
        out = tmp_path / "table.tsv"
        code = main(["table", "--senders", "2", "--format", "table", "--out", str(out)])
        assert code == EXIT_PASS
        assert out.read_text().startswith("outcome\t")

    @pytest.mark.parametrize("senders", [4, 5])
    def test_table_at_every_sender_count(self, senders, capsys):
        assert main(["table", "--senders", str(senders)]) == EXIT_PASS
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert len(entries) == 8**senders
        assert min(e["fidelity"] for e in entries) >= 1 - protocol.FIDELITY_TOL

    def test_table_beyond_max_senders_rejected(self, capsys):
        assert main(["table", "--senders", "6"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: senders must be in 2..5, got 6\n"

    @pytest.mark.parametrize("flag", [["--seed", "5"], ["--profile", "p.json"], ["--random"]])
    def test_table_rejects_input_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--senders", "2", *flag])
        assert exc.value.code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("trials", ["99", "1"])
    def test_exhaustive_excludes_trials(self, trials, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--exhaustive", "--trials", trials])
        assert exc.value.code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("argv", [["verify", "--exhaustive"], ["run"], ["table"]])
    def test_unwritable_out_is_input_error(self, argv, tmp_path, capsys):
        path = str(tmp_path / "missing" / "r.json")
        assert main([*argv, "--out", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: cannot write {path}: [Errno 2] No such file or directory: {path!r}\n"
        directory = str(tmp_path)
        assert main([*argv, "--out", directory]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: cannot write {directory}: [Errno 21] Is a directory: {directory!r}\n"

    @pytest.mark.parametrize("argv", [["verify", "--exhaustive"], ["run"], ["table"]])
    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_unwritable_stdout_is_input_error(self, argv, failing, monkeypatch, capsys):
        # A full disk, as under `> /dev/full`: a large report fails in the
        # write, a small one in the flush that a buffered stream defers.
        def full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        stdout = io.StringIO()
        monkeypatch.setattr(stdout, failing, full)
        monkeypatch.setattr(harness.sys, "stdout", stdout)
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: cannot write stdout: [Errno 28] No space left on device\n"

    def test_out_bytes_are_the_text_in_the_locale_encoding(self, tmp_path, monkeypatch, capsys):
        # The report echoes its profile's non-ASCII path; `--out` writes the
        # stdout text in the encoding a text-mode write uses, over an older,
        # longer file.
        monkeypatch.chdir(tmp_path)
        write_profile(tmp_path, valid_doc(), name="prøfil.json")
        argv = ["verify", "--senders", "2", "--exhaustive", "--profile", "prøfil.json", "--format", "table"]
        assert main(argv) == EXIT_PASS
        text = capsys.readouterr().out
        assert "prøfil.json" in text
        out = tmp_path / "r.out"
        out.write_bytes(b"x" * (2 * len(text)))
        assert main([*argv, "--out", str(out)]) == EXIT_PASS
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == text.encode(locale.getpreferredencoding(False))

    def test_non_utf8_profile_path_is_written_as_its_bytes(self, tmp_path):
        # argv decodes the path b"p\xff.json" with surrogateescape, and the
        # table report that echoes it is encoded back the same way.
        path = write_profile(tmp_path, valid_doc(), name=os.fsdecode(b"p\xff.json"))
        out = tmp_path / "r.out"
        assert main(["verify", "--exhaustive", "--profile", path, "--format", "table", "--out", str(out)]) == EXIT_PASS
        assert b"p\xff.json" in out.read_bytes()

    def test_unencodable_report_leaves_the_file(self, tmp_path, monkeypatch):
        # The report is encoded before the file is opened.
        out = tmp_path / "r.out"
        out.write_bytes(b"before")
        monkeypatch.setattr(harness.locale, "getpreferredencoding", lambda do_setlocale=True: "ascii")
        with pytest.raises(UnicodeEncodeError):
            harness._write_output("prøfil", str(out))
        assert out.read_bytes() == b"before"

    def test_write_loops_until_every_byte_is_out(self, tmp_path, monkeypatch):
        # os.write may write fewer bytes than it is given.
        written, real = [], os.write
        monkeypatch.setattr(harness.os, "write", lambda fd, data: written.append(len(data)) or real(fd, data[:3]))
        out = tmp_path / "r.out"
        harness._write_output("0123456789", str(out))
        assert out.read_bytes() == b"0123456789" and written == [10, 7, 4, 1]

    def test_sampled_outcomes_pinned(self, capsys):
        # The map from seed to drawn outcomes is part of the output contract.
        assert main(["verify", "--senders", "5", "--trials", "20", "--seed", "7"]) == EXIT_PASS
        doc = json.loads(capsys.readouterr().out)
        assert [b["outcome"] for b in doc["branches"]] == [
            "57612", "60663", "22234", "47647", "11400", "43754", "31015", "12061", "27465", "50446",
            "24032", "16374", "45513", "13071", "52651", "67741", "17417", "54331", "07342", "60200",
        ]
        assert main(["run", "--senders", "3", "--seed", "1"]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["outcome"] == "471"

    @pytest.mark.parametrize(
        ("senders", "digest"),
        [
            (2, "3c5ac91877f984ad53827a6499758da01bc65dd95ac8302521447a755ae5a125"),
            (3, "6621f31deab799108cea19d827531e3dbe4353a703449704f591fec62f5d646f"),
            (4, "2016bf0b205a085fee5dfac8cfd1545aca0a187731a0c0d3ec88387303f43d5c"),
            (5, "3514344df62b3def49ea71ec6ca4b1449e0abb78d6e34d66f59f9443cbd3805d"),
        ],
        ids=["2", "3", "4", "5"],
    )
    def test_sampled_report_bytes_pinned(self, senders, digest, capsys):
        # sha256 of the whole report as the trial-by-trial sampler wrote it,
        # but for fidelities taken on the corrected 8-vectors, which moved the
        # last bits of some at N = 3; 2000 trials take the batched sampler
        # over a chunk boundary.
        argv = ["verify", "--senders", str(senders), "--trials", "2000", "--seed", "7"]
        assert main(argv) == EXIT_PASS
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(("argv", "digest"), REPORT_PINS, ids=[argv for argv, _ in REPORT_PINS])
    def test_report_and_table_bytes_pinned(self, argv, digest, capsys):
        # sha256 of stdout as json.dumps(..., indent=2) of the whole document
        # and the table lines written row by row from row dicts produced it;
        # for `run`, as it was written before `run` shared `verify`'s path,
        # except the fidelity, which a one-row batch now gets with the bits
        # of its branch in any larger batch. Fidelities are taken on the
        # corrected 8-vectors, as `table` takes them, which moved the last
        # bits of some in both N = 3 reports and the N = 3 `run`.
        assert main(argv.split()) == EXIT_PASS
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [["verify", "--senders", "3", "--trials", "5"], ["run"]])
    def test_unexpected_exception_is_internal_error(self, argv, monkeypatch, capsys):
        def broken(*args):
            raise RuntimeError("sampler broke")

        monkeypatch.setattr(protocol, "_sampled_outcomes", broken)
        assert main(argv) == EXIT_INTERNAL_ERROR
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: sampler broke\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["verify", "--seed", "-1"], ["run", "--seed", "-5"]])
    def test_negative_seed_is_input_error(self, argv, capsys):
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: seed must be non-negative")

    @pytest.mark.parametrize(
        "text",
        [
            '{"x": [1' + "0" * 400 + ', 0, 0, 0, 0, 0, 0, 0], "delta": [0, 0, 0, 0, 0, 0, 0, 0]}',
            '{"x": [' + "1" * 5000 + ', 0, 0, 0, 0, 0, 0, 0], "delta": [0, 0, 0, 0, 0, 0, 0, 0]}',
            "[" * 200000,
        ],
        ids=["beyond-float-range", "beyond-int-digit-limit", "nested-200000-deep"],
    )
    def test_malformed_number_or_nesting_is_input_error(self, text, tmp_path, capsys):
        path = tmp_path / "profile.json"
        path.write_text(text)
        assert main(["verify", "--profile", str(path)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["verify", "run"])
    def test_profile_at_normalization_edge_is_input_error(self, command, tmp_path, capsys):
        # The sum of squares is within 1e-12 of 1, but the amplitude basis
        # these magnitudes build fails its Gram check (deviation 1.00009e-12).
        x = bases_mod.random_amplitude_profile(np.random.default_rng(6)).x * np.sqrt(1 + 0.9999e-12)
        assert abs(np.sum(x**2) - 1.0) <= 1e-12
        path = write_profile(tmp_path, {"x": x.tolist(), "delta": valid_doc()["delta"]})
        assert main([command, "--profile", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: amplitude profile not normalized")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["verify", "run"])
    def test_overflowing_magnitudes_are_input_error(self, command, tmp_path, capsys):
        # The Gram matrix of these magnitudes holds inf and NaN; with warnings
        # as errors, an overflow warning on the way would fail the test too.
        path = write_profile(tmp_path, {"x": [1e200, 1e200, 0, 0, 0, 0, 0, 0], "delta": valid_doc()["delta"]})
        assert main([command, "--profile", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: amplitude profile not normalized")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["verify", "run"])
    def test_overflowing_share_sum_is_input_error(self, command, tmp_path, capsys):
        # Each row is finite, but their entrywise sum overflows to inf.
        row = [0.0, 1e308, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        path = write_profile(tmp_path, {"x": valid_doc()["x"], "shares": [row, row]})
        assert main([command, "--senders", "3", "--profile", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: phase share rows must sum to finite phases\n"

    @pytest.mark.parametrize(
        ("fields", "message"),
        [
            ({"x": [0.5] * 8, "delta": [1.0] * 8}, "error: amplitude profile not normalized"),
            ({"delta": [1.0] * 8}, "error: phase profile entry 0 must be exactly 0"),
        ],
        ids=["x-first", "delta-before-shares"],
    )
    def test_fields_are_checked_in_order(self, fields, message, tmp_path, capsys):
        path = write_profile(tmp_path, {**valid_doc(), **fields, "shares": [[0.0, 1.0]]})
        assert main(["verify", "--profile", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(message)

    def test_repeated_calls_share_no_parser_state(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--exhaustive", "--seed", "3", "--format", "table", "--out", str(out)]) == EXIT_PASS
        assert main(["verify", "--out", str(out)]) == EXIT_PASS
        assert json.loads(out.read_text())["config"] == RunConfig().echo()

    def test_non_utf8_profile_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["verify", "--profile", str(path)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(f"error: profile {path} is not UTF-8 text")


LONG_OPTIONS = ("--senders", "--seed", "--profile", "--random", "--out", "--format", "--exhaustive", "--trials",
                "--force-outcome")
# Values that int() reads, that argparse reads as an option, or that name a command.
VALUES = ("3", " 3", "+3", "3_0", "\u0663", "-1", "", "x", "table", "1:2,3")
# Every option with its prefixes and `=` forms, help, `--`, and the values.
ARGV_WORDS = st.one_of(
    st.sampled_from(LONG_OPTIONS),
    st.sampled_from([option[:i] for option in LONG_OPTIONS for i in range(3, len(option))]),
    st.builds("{}={}".format, st.sampled_from(LONG_OPTIONS), st.sampled_from(VALUES)),
    st.sampled_from(("-h", "--help", "--")),
    st.sampled_from(VALUES),
)
COMMANDS = ("verify", "run", "table", "bogus")


@st.composite
def option_argv(draw):
    """A command and distinct options of its own, each but a flag followed by a value: three times in four one that
    the option accepts, else any word. Mostly an argv that `_parse` reads itself; one in five loses its last word."""
    command = draw(st.sampled_from(COMMANDS[:3]))
    argv = [command]
    for option in draw(st.lists(st.sampled_from(list(harness._build_parser()[1][command][0])), unique=True,
                                max_size=4)):
        if option in ("--random", "--exhaustive"):
            argv.append(option)
        elif draw(st.integers(0, 3)):
            argv += [option, {"--format": "table", "--force-outcome": "1:2,3"}.get(option, "3")]
        else:
            argv += [option, draw(ARGV_WORDS)]
    return argv[:-1] if len(argv) > 1 and not draw(st.integers(0, 4)) else argv


ARGV = st.one_of(st.lists(st.one_of(st.sampled_from(COMMANDS), ARGV_WORDS), max_size=7), option_argv())


def parsed(parse, argv):
    """(namespace items or SystemExit code, stdout, stderr) of one parse."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            result = [(k, type(v), v) for k, v in vars(parse(argv)).items()]
        except SystemExit as exc:
            result = exc.code
    return result, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=1000, deadline=None)
@given(argv=ARGV)
@example(argv=[])
@example(argv=["-h"])
@example(argv=["--", "verify"])
def test_parse_is_argparse(argv):
    parser, _ = harness._build_parser()
    assert parsed(harness._parse, argv) == parsed(parser.parse_args, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--senders", "3", "--exhaustive", "--seed", "7", "--out", "r.json"],
        ["verify", "--senders", "5", "--trials", "100", "--seed", "7", "--out", "r.json"],
        ["table", "--senders", "3", "--out", "r.json"],
        ["run", "--force-outcome", "1:2", "--format", "table", "--random"],
        ["verify"],
    ],
)
def test_canonical_argv_is_read_without_argparse(argv, monkeypatch):
    parser, _ = harness._build_parser()
    expected = parsed(parser.parse_args, argv)
    monkeypatch.setattr(parser, "parse_args", lambda argv: pytest.fail(f"argparse read {argv}"))
    assert parsed(harness._parse, argv) == expected
