import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chi_jrsp.bases import (
    AmplitudeProfile,
    PhaseProfile,
    PhaseShares,
    amplitude_basis,
    compose_phases,
    random_amplitude_profile,
    random_phase_profile,
    random_inputs,
    random_phase_shares,
)
from chi_jrsp.protocol import (
    _TABLE_PROFILE,
    CHI_SUPPORT,
    NoCorrectionFound,
    _all_outcomes,
    _collapse_branch,
    _search_correction,
    build_correction_table,
    classical_cost,
    compressed_target,
    derive_correction,
    measurement_bases,
    parity_expand,
    prepare_channel,
    run_n_sender,
    run_two_sender,
    target_state,
)
from chi_jrsp.qstate import StateVector, basis_state, fidelity_up_to_phase, ket_bits, measure_in_basis

INV_2SQRT2 = 1.0 / (2.0 * np.sqrt(2.0))
TOL = 1e-10
TABLE_SEED = 7043  # protocol._TABLE_PROFILE is the profile of this seed
SRC = Path(__file__).resolve().parents[1] / "src"
# Runs one command in a fresh interpreter and prints its exit code and whether numpy.random was imported.
IMPORT_PROBE = """
import sys
from chi_jrsp.harness import main
code = main(sys.argv[1:])
print(code, "numpy.random" in sys.modules)
"""


def seeded_inputs(seed, n_senders=2):
    rng = np.random.default_rng(seed)
    x = random_amplitude_profile(rng)
    if n_senders == 2:
        return x, random_phase_profile(rng)
    return x, random_phase_shares(rng, n_senders)


def aligned_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max amplitude deviation after aligning b's global phase to a."""
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(a - b * phase)))


class TestQubitLayout:
    def test_party_major_triples(self):
        # Party p (Alice, Bob_1, Bob_2, Charlie for N = 3) holds qubits
        # 3p..3p+2, and each of those triples carries the same group bits.
        channel = prepare_channel(3)
        assert channel.n_qubits == 12
        triples = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
        for idx in np.flatnonzero(np.abs(channel.amps) > 1e-15):
            bits = ket_bits(int(idx), channel.n_qubits)
            assert len({tuple(bits[q] for q in t) for t in triples}) == 1


class TestTargetState:
    def test_degenerate_profile(self):
        x = AmplitudeProfile([1, 0, 0, 0, 0, 0, 0, 0])
        s = target_state(x, PhaseProfile(np.zeros(8)))
        assert np.allclose(s.amps, basis_state(4, 0).amps)

    def test_chi_fixture(self):
        x = AmplitudeProfile([INV_2SQRT2] * 8)
        delta = PhaseProfile([0, np.pi, np.pi, 0, 0, 0, 0, 0])
        expected = np.zeros(16, dtype=complex)
        for idx, sign in zip(CHI_SUPPORT, (1, -1, -1, 1, 1, 1, 1, 1)):
            expected[idx] = sign * INV_2SQRT2
        assert np.max(np.abs(target_state(x, delta).amps - expected)) <= 1e-12

    def test_support_is_even_parity_only(self):
        x, delta = seeded_inputs(0)
        s = target_state(x, delta)
        assert abs(np.linalg.norm(s.amps) - 1.0) <= 1e-12
        for idx in range(16):
            if sum(ket_bits(idx, 4)) % 2 == 1:
                assert s.amps[idx] == 0.0
        assert all(sum(ket_bits(idx, 4)) % 2 == 0 for idx in CHI_SUPPORT)

    def test_chi_support_parity(self):
        for idx in CHI_SUPPORT:
            bits = ket_bits(idx, 4)
            assert bits[3] == (bits[0] ^ bits[1] ^ bits[2])


class TestCompressedTarget:
    def test_shares_stand_for_their_composed_profile(self):
        # Shares compose inside compressed_target, so both targets are the
        # same bits whichever phase input they get; target_state places the
        # compressed amplitudes on CHI_SUPPORT unchanged.
        x, shares = seeded_inputs(9, n_senders=4)
        delta = compose_phases(shares)
        assert np.array_equal(compressed_target(x, shares).amps, compressed_target(x, delta).amps)
        assert np.array_equal(target_state(x, shares).amps, target_state(x, delta).amps)
        expected = np.zeros(16, dtype=complex)
        expected[list(CHI_SUPPORT)] = x.x * np.exp(1j * delta.delta)
        assert np.array_equal(target_state(x, shares).amps, expected)

    def test_degenerate(self):
        x = AmplitudeProfile([1, 0, 0, 0, 0, 0, 0, 0])
        assert np.allclose(compressed_target(x, PhaseProfile(np.zeros(8))).amps, basis_state(3, 0).amps)

    def test_uniform(self):
        x = AmplitudeProfile([INV_2SQRT2] * 8)
        assert np.allclose(compressed_target(x, PhaseProfile(np.zeros(8))).amps, INV_2SQRT2)

    def test_parity_expand_recovers_target(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = random_amplitude_profile(rng)
            delta = random_phase_profile(rng)
            expanded = parity_expand(compressed_target(x, delta))
            assert np.max(np.abs(expanded.amps - target_state(x, delta).amps)) <= 1e-12


class TestParityExpand:
    def test_basis_kets(self):
        assert np.allclose(parity_expand(basis_state(3, 0b101)).amps, basis_state(4, 0b1010).amps)
        assert np.allclose(parity_expand(basis_state(3, 0b111)).amps, basis_state(4, 0b1111).amps)

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            parity_expand(basis_state(4, 0))


class TestPrepareChannel:
    def expected_indices(self, n_senders):
        # Independent enumeration: group g is all-0 or all-1 across every
        # party; party p's qubit in group g sits at position 3p + g.
        n = 3 * (n_senders + 1)
        out = []
        for m in range(8):
            bits = ((m >> 2) & 1, (m >> 1) & 1, m & 1)
            idx = 0
            for p in range(n_senders + 1):
                for g in range(3):
                    idx = (idx << 1) | bits[g]
            out.append(idx)
        return sorted(out)

    def test_two_sender_indices(self):
        channel = prepare_channel(2)
        nonzero = np.flatnonzero(np.abs(channel.amps) > 1e-15)
        assert nonzero.tolist() == [0, 73, 146, 219, 292, 365, 438, 511]
        assert nonzero.tolist() == self.expected_indices(2)
        assert np.allclose(channel.amps[nonzero], INV_2SQRT2)

    def test_three_sender_channel(self):
        channel = prepare_channel(3)
        assert channel.n_qubits == 12
        nonzero = np.flatnonzero(np.abs(channel.amps) > 1e-15)
        assert nonzero.tolist() == self.expected_indices(3)
        assert np.allclose(channel.amps[nonzero], INV_2SQRT2)

    @pytest.mark.parametrize("n_senders", [2, 3, 4, 5])
    def test_channel_indices(self, n_senders):
        channel = prepare_channel(n_senders)
        assert channel.n_qubits == 3 * (n_senders + 1)
        nonzero = np.flatnonzero(np.abs(channel.amps) > 1e-15)
        assert nonzero.tolist() == self.expected_indices(n_senders)
        assert np.allclose(channel.amps[nonzero], INV_2SQRT2)

    def test_groups_jointly_zero_or_one(self):
        channel = prepare_channel(2)
        for idx in np.flatnonzero(np.abs(channel.amps) > 1e-15):
            bits = ket_bits(int(idx), channel.n_qubits)
            for g in range(3):
                group = {bits[3 * p + g] for p in range(3)}
                assert len(group) == 1

    def test_alice_outcomes_uniform(self):
        x, _ = seeded_inputs(1)
        channel = prepare_channel(2)
        branches = measure_in_basis(channel, (0, 1, 2), amplitude_basis(x))
        for branch in branches:
            assert branch.probability == pytest.approx(1 / 8, abs=TOL)


class TestMeasurementBases:
    def test_sender_bounds(self):
        x, delta = seeded_inputs(0)
        with pytest.raises(ValueError, match="n_senders must be in 2..5"):
            measurement_bases(x, delta, 1)
        with pytest.raises(ValueError, match="n_senders must be in 2..5"):
            measurement_bases(x, delta, 6)


class TestWorkedCollapse:
    def worked_two_sender_pattern(self, x, delta):
        # Collapse pattern of the two-sender worked branch, as published.
        e = np.exp(1j * delta.delta)
        xv = x.x
        amps = np.array(
            [
                xv[1] * e[1],
                xv[0],
                -xv[3] * e[3],
                -xv[2] * e[2],
                -xv[5] * e[5],
                -xv[4] * e[4],
                xv[7] * e[7],
                xv[6] * e[6],
            ]
        )
        return amps / np.linalg.norm(amps)

    def test_pattern_arises_at_outcome_1_2(self):
        # Under the transcribed matrices the published pattern belongs to
        # announced outcomes (k=1, j=2); the (k=1, j=3) labeling is pinned,
        # and red, in the acceptance suite.
        x, delta = seeded_inputs(2)
        collapsed, prob, _ = _collapse_branch(x, delta, 1, (2,))
        assert prob == pytest.approx(1 / 64, abs=TOL)
        assert aligned_deviation(self.worked_two_sender_pattern(x, delta), collapsed.amps) <= TOL

    def test_outcome_1_3_differs_from_pattern(self):
        x, delta = seeded_inputs(2)
        collapsed, _, _ = _collapse_branch(x, delta, 1, (3,))
        pattern = StateVector(self.worked_two_sender_pattern(x, delta))
        assert fidelity_up_to_phase(collapsed, pattern) < 0.999

    def test_n_sender_worked_pattern(self):
        # One phase sender announces outcome 1, the rest 0: the receiver's
        # state is the composed target with alternating signs.
        x, shares = seeded_inputs(3, n_senders=3)
        collapsed, prob, _ = _collapse_branch(x, shares, 0, (1, 0))
        phi = compose_phases(shares).delta
        pattern = x.x * np.exp(1j * phi) * np.array([1, -1, 1, -1, 1, -1, 1, -1])
        pattern /= np.linalg.norm(pattern)
        assert prob == pytest.approx(8.0**-3, abs=TOL)
        assert aligned_deviation(pattern, collapsed.amps) <= TOL


class TestDeriveCorrection:
    def test_identity_outcome(self):
        x, delta = seeded_inputs(4)
        assert derive_correction(0, (0,), x, delta) == ("I", "I", "I")
        collapsed, _, _ = _collapse_branch(x, delta, 0, (0,))
        assert fidelity_up_to_phase(collapsed, compressed_target(x, delta)) >= 1 - TOL

    def test_worked_pair_corrections(self):
        x, delta = seeded_inputs(4)
        assert derive_correction(1, (2,), x, delta) == ("Z", "Z", "X")
        assert derive_correction(1, (3,), x, delta) == ("I", "Z", "ZX")

    def test_n_sender_worked_correction(self):
        x, shares = seeded_inputs(5, n_senders=3)
        assert derive_correction(0, (1, 0), x, shares) == ("I", "I", "Z")

    def test_profile_independent(self):
        x, delta = seeded_inputs(6)
        outcomes = [(0, (5,)), (3, (1,)), (7, (7,)), (2, (4,)), (6, (0,))]
        triples = {o: derive_correction(o[0], o[1], x, delta) for o in outcomes}
        rng = np.random.default_rng(60)
        for _ in range(20):
            xf = random_amplitude_profile(rng)
            df = random_phase_profile(rng)
            target3 = compressed_target(xf, df)
            for (k, js), triple in triples.items():
                collapsed, _, _ = _collapse_branch(xf, df, k, js)
                corrected = _search_correction(collapsed, target3)
                assert corrected == triple

    def test_shares_sender_count_mismatch(self):
        x, shares = seeded_inputs(7, n_senders=3)
        with pytest.raises(ValueError):
            derive_correction(0, (0, 0, 0), x, shares)

    @pytest.mark.parametrize(("k", "js"), [(-1, (2,)), (1, (-3,)), (8, (0,)), (0, (8,))])
    def test_digits_outside_range_rejected(self, k, js):
        # A negative digit would index the bases from the end and run another
        # branch (k = -1 runs k = 7); every forced-branch entry point checks.
        x, delta = seeded_inputs(8)
        with pytest.raises(ValueError, match="outcome digits must be in 0..7"):
            derive_correction(k, js, x, delta)
        with pytest.raises(ValueError, match="outcome digits must be in 0..7"):
            _collapse_branch(x, delta, k, js)
        with pytest.raises(ValueError, match="outcome digits must be in 0..7"):
            run_two_sender(x, delta, force=(k, js))

    def test_no_correction_found(self):
        # No Pauli triple maps a basis ket onto a three-ket superposition.
        collapsed = basis_state(3, 0)
        target = StateVector(np.array([1, 1, 1, 0, 0, 0, 0, 0]) / np.sqrt(3))
        with pytest.raises(NoCorrectionFound):
            _search_correction(collapsed, target)


class TestCorrectionTable:
    def test_two_sender_table(self):
        table = build_correction_table(2)
        assert len(table.entries) == 64
        assert np.array_equal(table.outcomes, _all_outcomes(2))
        assert len(table.corrections) == 64 and table.fidelities.shape == (64,)
        assert table.fidelities.min() >= 1 - TOL
        assert table.entries[(0, 0)] == ("I", "I", "I")
        assert table.entries[(1, 2)] == ("Z", "Z", "X")
        assert table.entries[(1, 3)] == ("I", "Z", "ZX")
        assert table.corrections[8 * 1 + 3] == ("I", "Z", "ZX")

    def test_three_sender_table(self):
        table = build_correction_table(3)
        assert len(table.entries) == 512
        assert np.array_equal(table.outcomes, _all_outcomes(3))
        assert len(table.corrections) == 512 and table.fidelities.shape == (512,)
        assert table.fidelities.min() >= 1 - TOL
        assert table.entries[(0, 1, 0)] == ("I", "I", "Z")

    def test_entries_is_a_read_only_view_of_the_columns(self):
        table = build_correction_table(2)
        assert list(table.entries) == [tuple(row) for row in table.outcomes.tolist()]
        assert list(table.entries.values()) == table.corrections
        with pytest.raises(TypeError):
            table.entries[(0, 0)] = ("X", "X", "X")

    def test_four_sender_table(self):
        # Tables enumerate every sender count in 2..MAX_SENDERS; their entries
        # are the corrections that derive_correction finds on the table's
        # profile and on another generic one.
        table = build_correction_table(4)
        assert len(table.entries) == 4096
        assert table.fidelities.min() >= 1 - TOL
        assert table.entries[(0, 0, 0, 0)] == ("I", "I", "I")
        assert table.entries[(0, 1, 0, 0)] == ("I", "I", "Z")
        for seed in (TABLE_SEED - 1, TABLE_SEED):
            x, shares = random_inputs(4, seed)
            assert derive_correction(0, (0, 0, 0), x, shares) == ("I", "I", "I")
            assert derive_correction(0, (1, 0, 0), x, shares) == ("I", "I", "Z")
        for n_senders in (1, 6):  # the table checks the range before it draws its profiles
            with pytest.raises(ValueError, match=rf"^n_senders must be in 2\.\.5, got {n_senders}$"):
                build_correction_table(n_senders)

    @pytest.mark.parametrize("n_senders", [2, 3, 4, 5])
    def test_profile_is_the_seeded_profile(self, n_senders):
        # The written-out profile is random_inputs(N, TABLE_SEED)'s, bit for bit.
        x, phases = random_inputs(n_senders, TABLE_SEED)
        rows = phases.delta[None] if n_senders == 2 else phases.shares
        assert np.array_equal(_TABLE_PROFILE[0].view(np.uint64), x.x.view(np.uint64))
        assert np.array_equal(_TABLE_PROFILE[1:n_senders].view(np.uint64), rows.view(np.uint64))

    def test_table_does_not_import_numpy_random(self, tmp_path):
        # A table op draws no random numbers, so it never imports numpy.random
        # and the modules it pulls in; a verify op on a seeded profile does,
        # which shows that the probe sees the import.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        out = str(tmp_path / "report.out")
        runs = [(["table", "--senders", str(n), "--out", out], "0 False") for n in range(2, 6)]
        runs.append((["verify", "--senders", "3", "--exhaustive", "--out", out], "0 True"))
        for argv, expected in runs:
            result = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], env=env, capture_output=True,
                                    text=True, timeout=120)
            assert (result.stdout.strip(), result.stderr) == (expected, ""), argv

    def test_deterministic(self):
        a = build_correction_table(2)
        b = build_correction_table(2)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert a.entries == b.entries
        assert np.array_equal(a.fidelities.view(np.uint64), b.fidelities.view(np.uint64))


class TestRunTwoSender:
    def test_exhaustive_unit_success(self):
        x, delta = seeded_inputs(8)
        transcripts = run_two_sender(x, delta)
        assert len(transcripts) == 64
        assert min(t.fidelity for t in transcripts) >= 1 - TOL
        assert sum(t.probability for t in transcripts) == pytest.approx(1.0, abs=TOL)
        for t in transcripts:
            assert t.probability == pytest.approx(1 / 64, abs=TOL)
            assert t.classical_bits == 6
            assert len(t.measurements) == 2
            assert t.final_state.n_qubits == 4

    def test_outcome_order_lexicographic(self):
        x, delta = seeded_inputs(9)
        digits = ["".join(map(str, t.outcome)) for t in run_two_sender(x, delta)]
        assert digits == sorted(digits)
        assert digits[:3] == ["00", "01", "02"]

    def test_transcript_probability_is_product_of_records(self):
        x, delta = seeded_inputs(10)
        for t in run_two_sender(x, delta):
            prod = np.prod([m.probability for m in t.measurements])
            assert t.probability == pytest.approx(prod, abs=1e-15)

    def test_final_state_matches_target(self):
        x, delta = seeded_inputs(11)
        target = target_state(x, delta)
        for t in run_two_sender(x, delta):
            assert fidelity_up_to_phase(t.final_state, target) >= 1 - TOL

    def test_sampled_deterministic_and_uniform(self):
        x, delta = seeded_inputs(12)
        a = run_two_sender(x, delta, mode="sampled", seed=42, trials=10)
        b = run_two_sender(x, delta, mode="sampled", seed=42, trials=10)
        assert [t.outcome for t in a] == [t.outcome for t in b]
        for t in a:
            assert t.probability == pytest.approx(1 / 64, abs=TOL)
            assert t.fidelity >= 1 - TOL

    def test_forced_branch(self):
        x, delta = seeded_inputs(13)
        (t,) = run_two_sender(x, delta, force=(1, (2,)))
        assert t.outcome == (1, 2)
        assert t.correction == ("Z", "Z", "X")
        assert t.fidelity >= 1 - TOL

    def test_unknown_mode_rejected(self):
        x, delta = seeded_inputs(14)
        with pytest.raises(ValueError):
            run_two_sender(x, delta, mode="both")


class TestRunNSender:
    def test_reduction_to_two_sender(self):
        x, delta = seeded_inputs(15)
        two = run_two_sender(x, delta)
        general = run_n_sender(2, x, PhaseShares([delta.delta]))
        assert len(two) == len(general) == 64
        for a, b in zip(two, general):
            assert a.outcome == b.outcome
            assert a.correction == b.correction
            assert a.probability == pytest.approx(b.probability, abs=1e-15)
            assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)

    def test_three_sender_exhaustive(self):
        x, shares = seeded_inputs(16, n_senders=3)
        transcripts = run_n_sender(3, x, shares)
        assert len(transcripts) == 512
        assert min(t.fidelity for t in transcripts) >= 1 - TOL
        assert sum(t.probability for t in transcripts) == pytest.approx(1.0, abs=TOL)
        assert all(t.classical_bits == 9 for t in transcripts)

    def test_four_sender_sampled_composes_phases(self):
        # Three share rows jointly encode the target phases; sampled runs hit it.
        x, shares = seeded_inputs(17, n_senders=4)
        transcripts = run_n_sender(4, x, shares, mode="sampled", seed=1, trials=8)
        target = target_state(x, compose_phases(shares))
        for t in transcripts:
            assert fidelity_up_to_phase(t.final_state, target) >= 1 - TOL
            assert t.probability == pytest.approx(8.0**-4, abs=TOL)
            assert t.classical_bits == 12

    def test_four_sender_exhaustive(self):
        x, shares = seeded_inputs(18, n_senders=4)
        transcripts = run_n_sender(4, x, shares, mode="exhaustive")
        assert len(transcripts) == 4096
        assert [t.outcome for t in transcripts] == [tuple(o) for o in _all_outcomes(4).tolist()]
        for t in transcripts:
            assert t.probability == pytest.approx(8.0**-4, abs=TOL)
            assert t.fidelity >= 1 - TOL

    def test_share_count_must_match(self):
        x, shares = seeded_inputs(19, n_senders=3)
        with pytest.raises(ValueError):
            run_n_sender(4, x, shares)


class TestClassicalCost:
    def test_values(self):
        assert classical_cost(2) == 6
        assert classical_cost(3) == 9
        assert classical_cost(5) == 15

    def test_minimum_senders(self):
        with pytest.raises(ValueError):
            classical_cost(1)

    def test_matches_transcripts(self):
        x, delta = seeded_inputs(20)
        for t in run_two_sender(x, delta, mode="sampled", seed=0, trials=3):
            assert t.classical_bits == classical_cost(2)
