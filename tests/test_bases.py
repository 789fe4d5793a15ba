import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi_jrsp import bases, qstate
from chi_jrsp.bases import (
    PHASE_ARG_INDEX,
    SIGN_PATTERN,
    AmplitudeProfile,
    PhaseProfile,
    PhaseShares,
    amplitude_basis,
    amplitude_basis_matrix,
    compose_phases,
    phase_bases,
    phase_basis,
    phase_basis_from_row,
    random_amplitude_profile,
    random_inputs,
    random_phase_profile,
    random_phase_shares,
    share_bases,
    share_basis,
    signed_phase_matrix,
    validate_orthonormal,
)
from chi_jrsp.protocol import measurement_bases
from chi_jrsp.qstate import BasisSet, gram_deviation

INV_2SQRT2 = 1.0 / (2.0 * np.sqrt(2.0))


def distinct_profile():
    x = np.arange(1.0, 9.0)
    return AmplitudeProfile(x / np.linalg.norm(x))


def distinct_phases():
    return PhaseProfile([0.0, 0.3, 0.7, 1.1, 1.9, 2.3, 2.9, 3.7])


class TestProfiles:
    def test_amplitude_profile_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            AmplitudeProfile([0.5] * 8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [[1e200] * 8, [1e200, 1e200, 0, 0, 0, 0, 0, 0]])
    def test_amplitude_profile_rejects_overflowing_magnitudes(self, x):
        # Finite entries whose products overflow: the basis's Gram matrix
        # holds inf and, from inf - inf, NaN, neither of which may pass.
        with pytest.raises(ValueError, match="not normalized"):
            AmplitudeProfile(x)

    def test_amplitude_profile_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            AmplitudeProfile([1.0])

    def test_phase_profile_requires_zero_first_entry(self):
        with pytest.raises(ValueError):
            PhaseProfile([0.1, 0, 0, 0, 0, 0, 0, 0])

    def test_phase_shares_requires_zero_first_column(self):
        with pytest.raises(ValueError):
            PhaseShares([[0, 1, 2, 3, 4, 5, 6, 7], [0.5, 0, 0, 0, 0, 0, 0, 0]])

    def test_phase_shares_sender_count(self):
        shares = PhaseShares(np.zeros((3, 8)))
        assert shares.n_senders == 4
        with pytest.raises(ValueError):
            shares.row(4)

    def test_random_generators_are_valid_and_seeded(self):
        a = random_amplitude_profile(np.random.default_rng(4))
        b = random_amplitude_profile(np.random.default_rng(4))
        assert np.array_equal(a.x, b.x)
        assert np.all(a.x >= 0)
        d = random_phase_profile(np.random.default_rng(4))
        assert d.delta[0] == 0.0
        s = random_phase_shares(np.random.default_rng(4), 4)
        assert s.shares.shape == (3, 8)
        assert np.all(s.shares[:, 0] == 0.0)


class TestAmplitudeBasisMatrix:
    def test_exact_entry_layout(self):
        # Transcription pin: every entry and sign of the 8x8 layout.
        x = distinct_profile().x
        expected = np.array(
            [
                [x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]],
                [x[1], -x[0], x[3], -x[2], x[5], -x[4], x[7], -x[6]],
                [x[2], -x[3], -x[0], x[1], -x[6], x[7], x[4], -x[5]],
                [x[3], x[2], -x[1], -x[0], x[7], x[6], -x[5], -x[4]],
                [x[4], -x[5], x[6], -x[7], -x[0], x[1], -x[2], x[3]],
                [x[5], x[4], -x[7], -x[6], -x[1], -x[0], x[3], x[2]],
                [x[6], -x[7], -x[4], x[5], x[2], -x[3], -x[0], x[1]],
                [x[7], x[6], x[5], x[4], -x[3], -x[2], -x[1], -x[0]],
            ]
        )
        assert np.array_equal(amplitude_basis_matrix(distinct_profile()), expected)

    def test_second_row(self):
        x = distinct_profile().x
        row1 = amplitude_basis_matrix(distinct_profile())[1]
        assert np.array_equal(row1, [x[1], -x[0], x[3], -x[2], x[5], -x[4], x[7], -x[6]])

    def test_degenerate_profile_is_signed_permutation(self):
        e0 = AmplitudeProfile([1, 0, 0, 0, 0, 0, 0, 0])
        f = amplitude_basis_matrix(e0)
        assert np.array_equal(f[0], np.eye(8)[0])
        for k in range(1, 8):
            assert np.array_equal(f[k], -np.eye(8)[k])

    def test_uniform_profile_orthogonal(self):
        f = amplitude_basis_matrix(AmplitudeProfile([INV_2SQRT2] * 8))
        assert np.max(np.abs(f @ f.T - np.eye(8))) <= 1e-12

    def test_orthogonal_for_random_profiles(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            f = amplitude_basis_matrix(random_amplitude_profile(rng))
            assert np.max(np.abs(f @ f.T - np.eye(8))) <= 1e-12


class TestAmplitudeBasis:
    def test_degenerate_first_vector(self):
        basis = amplitude_basis(AmplitudeProfile([1, 0, 0, 0, 0, 0, 0, 0]))
        assert np.allclose(basis.vectors[0], np.eye(8)[0])

    def test_uniform_first_vector(self):
        basis = amplitude_basis(AmplitudeProfile([INV_2SQRT2] * 8))
        assert np.allclose(basis.vectors[0], INV_2SQRT2)

    def test_orthonormal_for_random_profiles(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            assert validate_orthonormal(amplitude_basis(random_amplitude_profile(rng))).passed


class TestSignedPhaseMatrix:
    def test_exact_sign_layout(self):
        # Transcription pin: the sign pattern with all arguments equal to 1.
        expected = np.array(
            [
                [1, 1, 1, 1, 1, 1, 1, 1],
                [1, -1, 1, -1, 1, -1, 1, -1],
                [1, -1, -1, 1, -1, 1, 1, -1],
                [1, 1, -1, -1, 1, 1, -1, -1],
                [1, -1, 1, -1, -1, 1, -1, 1],
                [1, 1, -1, -1, -1, -1, 1, 1],
                [1, -1, -1, 1, 1, -1, -1, 1],
                [1, 1, 1, 1, -1, -1, -1, -1],
            ]
        )
        assert np.array_equal(signed_phase_matrix(np.ones(8)), expected)
        assert np.array_equal(SIGN_PATTERN, expected)

    def test_rows_orthogonal_norm_eight(self):
        m = signed_phase_matrix(np.ones(8))
        assert np.array_equal(m @ m.T.conj(), 8 * np.eye(8))

    def test_column_scaling(self):
        units = np.ones(8, dtype=complex)
        units[1] = 1j
        m = signed_phase_matrix(units)
        assert np.array_equal(m[:, 1], SIGN_PATTERN[:, 1] * 1j)

    def test_rejects_non_unit_modulus(self):
        with pytest.raises(ValueError, match="unit modulus"):
            signed_phase_matrix([1, 1, 1, 1, 1, 1, 1, 0.5])

    @pytest.mark.parametrize("units", [[np.nan] * 8, [1, 1, 1, np.nan, 1, 1, 1, 1]], ids=["all", "one"])
    def test_rejects_nan_arguments(self, units):
        # NaN compares false against the tolerance, so a check written as
        # `dev > NORM_TOL` would let it through.
        with pytest.raises(ValueError, match="unit modulus"):
            signed_phase_matrix(units)

    def test_nan_phase_row_fails_the_modulus_check(self):
        with pytest.raises(ValueError, match="unit modulus"):
            phase_basis_from_row(0, [0.0, 0.1, np.nan, 0.3, 0.4, 0.5, 0.6, 0.7], label="nan")

    def test_stack_of_rows(self):
        rng = np.random.default_rng(106)
        units = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (3, 8)))
        stacked = signed_phase_matrix(units)
        assert stacked.shape == (3, 8, 8)
        for row, matrix in zip(units, stacked):
            assert np.array_equal(matrix, signed_phase_matrix(row))
        units[2, 7] *= 0.5
        with pytest.raises(ValueError, match="unit modulus"):
            signed_phase_matrix(units)


class TestPhaseBasis:
    def test_zero_phases_outcome_zero(self):
        basis = phase_basis(0, PhaseProfile(np.zeros(8)))
        assert np.allclose(basis.vectors[0], INV_2SQRT2)
        assert np.allclose(np.abs(basis.vectors), INV_2SQRT2)

    def test_argument_slots_for_outcome_one(self):
        # First row carries all-plus signs, so it exposes the argument tuple:
        # outcome 1 uses (r1, 1, r3, r2, r5, r4, r7, r6).
        delta = distinct_phases()
        r = np.exp(-1j * delta.delta)
        basis = phase_basis(1, delta)
        expected = np.array([r[1], 1, r[3], r[2], r[5], r[4], r[7], r[6]]) * INV_2SQRT2
        assert np.allclose(basis.vectors[0], expected, atol=1e-15)

    def test_argument_slots_for_outcome_three(self):
        delta = distinct_phases()
        r = np.exp(-1j * delta.delta)
        basis = phase_basis(3, delta)
        expected = np.array([r[3], r[2], r[1], 1, r[7], r[6], r[5], r[4]]) * INV_2SQRT2
        assert np.allclose(basis.vectors[0], expected, atol=1e-15)

    def test_argument_table_is_xor(self):
        for k in range(8):
            for m in range(8):
                assert PHASE_ARG_INDEX[k][m] == k ^ m

    def test_entry_moduli_constant(self):
        basis = phase_basis(5, distinct_phases())
        assert np.max(np.abs(np.abs(basis.vectors) - INV_2SQRT2)) <= 1e-15

    def test_orthonormal_for_random_phases(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            delta = random_phase_profile(rng)
            for k in range(8):
                report = validate_orthonormal(phase_basis(k, delta))
                assert report.passed and report.max_deviation <= 1e-12

    def test_invalid_outcome_rejected(self):
        with pytest.raises(ValueError):
            phase_basis(8, distinct_phases())


class TestShareBasis:
    def test_zero_share_row_matches_zero_phase_basis(self):
        shares = PhaseShares(np.zeros((2, 8)))
        for k in range(8):
            a = share_basis(k, 1, shares)
            b = phase_basis(k, PhaseProfile(np.zeros(8)))
            assert np.allclose(a.vectors, b.vectors)

    def test_single_row_reduces_to_phase_basis(self):
        delta = distinct_phases()
        shares = PhaseShares([delta.delta])
        for k in range(8):
            assert np.allclose(share_basis(k, 1, shares).vectors, phase_basis(k, delta).vectors)

    def test_orthonormal_for_random_shares(self):
        rng = np.random.default_rng(103)
        shares = random_phase_shares(rng, 4)
        for l in (1, 2, 3):
            for k in range(8):
                assert validate_orthonormal(share_basis(k, l, shares)).passed

    def test_row_out_of_range(self):
        shares = PhaseShares(np.zeros((2, 8)))
        with pytest.raises(ValueError):
            share_basis(0, 3, shares)


PHASE_ROWS = st.lists(
    st.one_of(st.floats(-7.0, 7.0), st.floats(-1e6, 1e6)), min_size=7, max_size=7
).map(lambda row: [0.0, *row])


def per_k_vectors(row, k):
    """Basis k of a phase row, entry by entry: sign (d, m) times the unit
    phase of entry k xor m, over 2 sqrt 2."""
    units = np.exp(-1j * np.asarray(row, dtype=float))
    return SIGN_PATTERN * units[[k ^ m for m in range(8)]][None, :] * INV_2SQRT2


class TestStackedPhaseBases:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(PHASE_ROWS, min_size=1, max_size=4))
    def test_sets_equal_per_k_formula(self, rows):
        x = random_amplitude_profile(np.random.default_rng(107))
        phases = PhaseProfile(rows[0]) if len(rows) == 1 else PhaseShares(rows)
        sets = measurement_bases(x, phases, len(rows) + 1)
        for p, row in enumerate(rows, start=1):
            for k in range(8):
                expected = per_k_vectors(row, k)
                assert np.array_equal(sets[p][k].vectors, expected)
                assert sets[p][k].deviation == gram_deviation(expected)
                label = f"phase[k={k}]" if len(rows) == 1 else f"share[l={p},k={k}]"
                assert sets[p][k].label == label

    @settings(max_examples=40, deadline=None)
    @given(row=PHASE_ROWS)
    def test_stacked_deviations_equal_per_basis(self, row):
        stack = np.array([per_k_vectors(row, k) for k in range(8)])
        deviations = gram_deviation(stack)
        for k in range(8):
            assert deviations[k] == gram_deviation(stack[k])

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(PHASE_ROWS, min_size=2, max_size=4))
    def test_one_stack_equals_per_sender_builds(self, rows):
        # measurement_bases builds every phase sender in one stack; each
        # sender's own build gives the same bits, in (l, k) order.
        x = random_amplitude_profile(np.random.default_rng(109))
        shares = PhaseShares(rows)
        sets = measurement_bases(x, shares, len(rows) + 1)
        stacked = [basis for row in sets[1:] for basis in row]
        single = [basis for l in range(1, len(rows) + 1) for basis in share_bases(l, shares)]
        assert [b.label for b in stacked] == [b.label for b in single]
        assert [b.label for b in stacked[:9:8]] == ["share[l=1,k=0]", "share[l=2,k=0]"]
        for got, expected in zip(stacked, single):
            assert np.array_equal(got.vectors.view(np.uint64), expected.vectors.view(np.uint64))
        deviations = np.array([[b.deviation for b in stacked], [b.deviation for b in single]])
        assert np.array_equal(deviations[0].view(np.uint64), deviations[1].view(np.uint64))

    def test_one_gram_product_for_all_phase_senders(self, monkeypatch):
        x, shares = random_inputs(5, 4)
        shapes = []
        real = qstate.gram_deviation

        def counted(vectors):
            shapes.append(vectors.shape)
            return real(vectors)

        monkeypatch.setattr(qstate, "gram_deviation", counted)
        measurement_bases(x, shares, 5)
        assert shapes == [(32, 8, 8), (8, 8)]

    @pytest.mark.parametrize(("n_senders", "first"), [(2, "phase[k=0]"), (3, "share[l=1,k=0]"), (5, "share[l=1,k=0]")])
    def test_flipped_sign_names_the_first_basis(self, n_senders, first, monkeypatch):
        # One flipped sign breaks every phase basis; the stack raises for the
        # first in (l, k) order, as the per-sender builds did.
        flipped = SIGN_PATTERN.copy()
        flipped[2, 5] *= -1
        monkeypatch.setattr(bases, "SIGN_PATTERN", flipped)
        x, phases = random_inputs(n_senders, 3)
        with pytest.raises(ValueError, match=rf"^basis {re.escape(first)} not orthonormal: deviation 0.25$"):
            measurement_bases(x, phases, n_senders)

    def test_views_match_per_k_builders(self):
        delta = distinct_phases()
        shares = random_phase_shares(np.random.default_rng(108), 4)
        for k, basis in enumerate(phase_bases(delta)):
            single = phase_basis(k, delta)
            assert (basis.label, basis.deviation) == (single.label, single.deviation)
            assert np.array_equal(basis.vectors, single.vectors)
        for l in (1, 2, 3):
            for k, basis in enumerate(share_bases(l, shares)):
                single = share_basis(k, l, shares)
                assert (basis.label, basis.deviation) == (single.label, single.deviation)
                assert np.array_equal(basis.vectors, single.vectors)


class TestComposePhases:
    def test_zero_rows(self):
        assert np.array_equal(compose_phases(PhaseShares(np.zeros((3, 8)))).delta, np.zeros(8))

    def test_two_rows_sum(self):
        a = np.array([0.0, 1, 2, 3, 4, 5, 6, 7])
        b = np.array([0.0, 7, 6, 5, 4, 3, 2, 1])
        composed = compose_phases(PhaseShares([a, b]))
        assert np.array_equal(composed.delta, a + b)

    def test_row_order_irrelevant(self):
        rng = np.random.default_rng(104)
        shares = random_phase_shares(rng, 5)
        shuffled = PhaseShares(shares.shares[::-1].copy())
        assert np.allclose(compose_phases(shares).delta, compose_phases(shuffled).delta)

    def test_concatenation_associativity(self):
        rng = np.random.default_rng(105)
        rows = random_phase_shares(rng, 5).shares
        left = compose_phases(PhaseShares(rows[:2])).delta + compose_phases(PhaseShares(rows[2:])).delta
        assert np.allclose(left, compose_phases(PhaseShares(rows)).delta)


class TestValidateOrthonormal:
    def test_computational_basis_passes(self):
        report = validate_orthonormal(BasisSet(np.eye(8, dtype=complex)))
        assert report.passed and report.max_deviation == 0.0

    def test_duplicate_vector_fails(self):
        bad = np.eye(8, dtype=complex)
        bad[1] = bad[0]
        report = validate_orthonormal(BasisSet(bad, check=False))
        assert not report.passed
        assert report.max_deviation == pytest.approx(1.0)
