import hashlib
import json

import numpy as np
import pytest

import chi_jrsp.bases as bases_mod
from chi_jrsp import harness, protocol
from chi_jrsp.harness import (
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_PASS,
    EXIT_VERIFY_FAIL,
    ProfileError,
    RunConfig,
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
    def test_exhaustive_limited_to_three_senders(self):
        with pytest.raises(ProfileError):
            RunConfig(senders=4, mode="exhaustive")

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

    def test_four_senders_rejected(self):
        with pytest.raises(ProfileError):
            cmd_table(RunConfig(senders=4))


class TestForceParsing:
    def test_parse(self):
        assert parse_force("1:3") == (1, (3,))
        assert parse_force("0:1,2,3") == (0, (1, 2, 3))

    def test_rejects_garbage(self):
        with pytest.raises(ProfileError):
            parse_force("1-3")

    def test_digit_range_is_a_config_check(self):
        # parse_force reads the digits; RunConfig checks their range for every caller.
        assert parse_force("9:1") == (9, (1,))
        with pytest.raises(ProfileError, match=r"forced outcome digits must be in 0\.\.7, got '9:1'"):
            RunConfig(senders=2, force=(9, (1,)))


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

    def test_exhaustive_beyond_three_is_usage_error(self, capsys):
        code = main(["verify", "--senders", "4", "--exhaustive"])
        assert code == EXIT_INPUT_ERROR

    def test_run_with_force(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(["run", "--senders", "2", "--seed", "3", "--force-outcome", "1:2", "--out", str(out)])
        assert code == EXIT_PASS
        assert json.loads(out.read_text())["correction"] == ["Z", "Z", "X"]

    def test_run_force_wrong_arity(self, capsys):
        code = main(["run", "--senders", "3", "--force-outcome", "1:2"])
        assert code == EXIT_INPUT_ERROR

    def test_table_command(self, tmp_path):
        out = tmp_path / "table.tsv"
        code = main(["table", "--senders", "2", "--format", "table", "--out", str(out)])
        assert code == EXIT_PASS
        assert out.read_text().startswith("outcome\t")

    def test_table_four_senders_rejected(self, capsys):
        assert main(["table", "--senders", "4"]) == EXIT_INPUT_ERROR

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
        code = main([*argv, "--out", str(tmp_path / "missing" / "r.json")])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: cannot write ")

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
            (3, "090f64ef8e02ae7adbddee53d92b467c24a5ab0adc270e8486658dae0dc1222e"),
            (4, "2016bf0b205a085fee5dfac8cfd1545aca0a187731a0c0d3ec88387303f43d5c"),
            (5, "3514344df62b3def49ea71ec6ca4b1449e0abb78d6e34d66f59f9443cbd3805d"),
        ],
    )
    def test_sampled_report_bytes_pinned(self, senders, digest, capsys):
        # sha256 of the whole report as the trial-by-trial sampler wrote it;
        # 2000 trials take the batched sampler over a chunk boundary.
        argv = ["verify", "--senders", str(senders), "--trials", "2000", "--seed", "7"]
        assert main(argv) == EXIT_PASS
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        ("argv", "digest"),
        [
            (
                "verify --senders 3 --exhaustive --seed 7",
                "fde3ff8422678fffaa35bd565f9d0b621554189c8c4bf8110ec30d77cff16fbc",
            ),
            (
                "verify --senders 2 --exhaustive --seed 7 --format table",
                "ed7aaadb4275a8f84846a4a6a3e0a45e8828600393de347fcab3611b5b2a06cc",
            ),
            ("table --senders 3", "9ad082bdcd9e3b2cdea165fca7ebe5ab29eabeeb2289ad58d06ed75f202d5591"),
            ("table --senders 3 --format table", "f9abfc046c9ec7d33397caaa7f6c706fff907e872e41c9b700210a17ded60c76"),
            ("run --senders 3 --seed 7", "ae4be3ca48b6017b0ed6092c84a59af6faa0f9904b41b62609141c053ff0fdee"),
            (
                "run --senders 3 --seed 7 --format table",
                "3058d82e900ed18d581eedfde37f99731c9c03516fd173a6e6447996448b3ffa",
            ),
            (
                "run --senders 5 --force-outcome 1:2,3,4,5",
                "67a52b7ad7ccdfb06a92afaf6c0146fe2b7d1d444482750e408476745ff01085",
            ),
            (
                "run --senders 5 --force-outcome 1:2,3,4,5 --format table",
                "197ce6c32eed4c4c82b419712ef3b50915f0554fefd9760c15089ff975cb0d48",
            ),
        ],
    )
    def test_report_and_table_bytes_pinned(self, argv, digest, capsys):
        # sha256 of stdout as json.dumps(..., indent=2) of the whole document
        # and the table lines written row by row from row dicts produced it;
        # for `run`, as it was written before `run` shared `verify`'s path.
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
