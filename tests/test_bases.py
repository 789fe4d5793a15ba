import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chi_jrsp import bases, protocol, qstate
from chi_jrsp.bases import (
    PHASE_ARG_INDEX,
    SIGN_PATTERN,
    AmplitudeProfile,
    PhaseProfile,
    PhaseShares,
    amplitude_basis,
    amplitude_basis_matrix,
    compose_phases,
    phase_basis,
    phase_basis_from_row,
    random_amplitude_profile,
    random_inputs,
    random_phase_profile,
    random_phase_shares,
    share_basis,
    signed_phase_matrix,
    validate_orthonormal,
)
from chi_jrsp.protocol import measurement_bases
from chi_jrsp.qstate import NORM_TOL, BasisSet, gram_deviation

INV_2SQRT2 = 1.0 / (2.0 * np.sqrt(2.0))

# The paper's printed tables, the oracle of the layouts `bases` derives from
# its Walsh index. PRINTED_SIGNS row p, column m is the sign of argument slot
# m in basis vector p; PRINTED_PHASE_ARGS[k][m] is the entry that fills slot m
# of the basis for announced outcome k (a unit phase; x for the magnitudes).
PRINTED_SIGNS = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, -1, 1, -1, 1, -1, 1, -1],
        [1, -1, -1, 1, -1, 1, 1, -1],
        [1, 1, -1, -1, 1, 1, -1, -1],
        [1, -1, 1, -1, -1, 1, -1, 1],
        [1, 1, -1, -1, -1, -1, 1, 1],
        [1, -1, -1, 1, 1, -1, -1, 1],
        [1, 1, 1, 1, -1, -1, -1, -1],
    ],
    dtype=float,
)
PRINTED_PHASE_ARGS = (
    (0, 1, 2, 3, 4, 5, 6, 7),
    (1, 0, 3, 2, 5, 4, 7, 6),
    (2, 3, 0, 1, 6, 7, 4, 5),
    (3, 2, 1, 0, 7, 6, 5, 4),
    (4, 5, 6, 7, 0, 1, 2, 3),
    (5, 4, 7, 6, 1, 0, 3, 2),
    (6, 7, 4, 5, 2, 3, 0, 1),
    (7, 6, 5, 4, 3, 2, 1, 0),
)


def printed_layout(x):
    """The paper's printed amplitude layout of the magnitudes x, entry by entry."""
    return np.array(
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


def assert_bits_equal(a, b):
    """Equal shapes, dtypes and bits: -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


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

    def test_amplitude_profile_keeps_the_basis_it_checked(self, monkeypatch):
        # The profile builds its basis once, to judge normalization, and
        # measurement_bases takes that basis instead of building another.
        built = []
        real = bases.amplitude_basis
        monkeypatch.setattr(bases, "amplitude_basis", lambda profile: built.append(real(profile)) or built[-1])
        x = distinct_profile()
        sets = measurement_bases(x, distinct_phases(), 2)
        assert len(built) == 1 and x.basis is built[0]
        assert_bits_equal(x.basis.vectors, amplitude_basis_matrix(x).astype(complex))
        assert all(np.array_equal(sets.vectors[0, k], x.basis.vectors) for k in range(8))

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
    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]), st.floats(-2.0, 2.0)),
        min_size=8, max_size=8,
    ))
    @example(x=distinct_profile().x.tolist())
    def test_exact_entry_layout(self, x):
        # Every entry and sign of the 8x8 layout is the printed one, bit for
        # bit, signed zeros, subnormals and +-1e300 entries included. Most
        # such magnitudes fail the profile's normalization, so the layout
        # reads them from a bare record.
        x = np.array(x)
        assert_bits_equal(amplitude_basis_matrix(SimpleNamespace(x=x)), printed_layout(x))

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
        # The sign pattern, alone and with all arguments equal to 1, is the printed one.
        assert_bits_equal(signed_phase_matrix(np.ones(8)), PRINTED_SIGNS.astype(complex))
        assert_bits_equal(SIGN_PATTERN, PRINTED_SIGNS)

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
        # The printed table is k ^ m, and the derived one is the printed one.
        assert PRINTED_PHASE_ARGS == tuple(tuple(k ^ m for m in range(8)) for k in range(8))
        assert PHASE_ARG_INDEX == PRINTED_PHASE_ARGS

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
    """Basis k of a phase row, from the printed tables: sign (d, m) times the
    unit phase of entry PRINTED_PHASE_ARGS[k][m], over 2 sqrt 2."""
    units = np.exp(-1j * np.asarray(row, dtype=float))
    return PRINTED_SIGNS * units[list(PRINTED_PHASE_ARGS[k])][None, :] * INV_2SQRT2


def flip_entry(pattern):
    pattern[2, 5] *= -1


def swap_rows(pattern):
    pattern[[1, 2]] = pattern[[2, 1]]


class TestStackedPhaseBases:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(PHASE_ROWS, min_size=1, max_size=4))
    def test_sets_equal_per_k_formula(self, rows):
        x = random_amplitude_profile(np.random.default_rng(107))
        phases = PhaseProfile(rows[0]) if len(rows) == 1 else PhaseShares(rows)
        sets = measurement_bases(x, phases, len(rows) + 1)
        assert sets.vectors.shape == (len(rows) + 1, 8, 8, 8) and sets.deviations.shape == (len(rows) + 1, 8)
        assert not sets.vectors.flags.writeable
        for k in range(8):
            assert np.array_equal(sets.vectors[0, k], x.basis.vectors)
            assert (sets.labels[0][k], sets.deviations[0, k]) == ("amplitude", x.basis.deviation)
        for p, row in enumerate(rows, start=1):
            for k in range(8):
                expected = per_k_vectors(row, k)
                assert np.array_equal(sets.vectors[p, k], expected)
                assert sets.deviations[p, k] == gram_deviation(expected)
                label = f"phase[k={k}]" if len(rows) == 1 else f"share[l={p},k={k}]"
                assert sets.labels[p][k] == label

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
        # basis's own build gives the same bits: vectors, label and deviation.
        x = random_amplitude_profile(np.random.default_rng(109))
        shares = PhaseShares(rows)
        sets = measurement_bases(x, shares, len(rows) + 1)
        for l in range(1, len(rows) + 1):
            for k in range(8):
                single = share_basis(k, l, shares)
                assert sets.labels[l][k] == single.label == f"share[l={l},k={k}]"
                assert np.array_equal(sets.vectors[l, k].view(np.uint64), single.vectors.view(np.uint64))
                assert sets.deviations[l, k] == single.deviation  # never NaN or -0.0, so equal bits

    def test_one_gram_product_for_all_phase_senders(self, monkeypatch):
        # The amplitude basis was checked when its profile was built; the
        # phase senders' bases take one stacked product between them.
        x, shares = random_inputs(5, 4)
        shapes = []
        real = qstate.gram_deviation

        def counted(vectors):
            shapes.append(vectors.shape)
            return real(vectors)

        monkeypatch.setattr(qstate, "gram_deviation", counted)
        monkeypatch.setattr(bases, "gram_deviation", counted)
        measurement_bases(x, shares, 5)
        assert shapes == [(4, 8, 8, 8)]

    def test_build_raises_for_the_first_failing_basis(self, monkeypatch):
        # Bases (1, 3) and (2, 0) fail; the build names the first in (i, k) order.
        deviations = np.zeros((3, 8))
        deviations[1, 3], deviations[2, 0] = 2.0, np.inf
        monkeypatch.setattr(bases, "gram_deviation", lambda vectors: deviations)
        labels = [[f"b{i}{k}" for k in range(8)] for i in range(3)]
        with pytest.raises(ValueError, match=r"^basis b13 not orthonormal: deviation 2$"):
            bases.phase_bases_from_rows(np.zeros((3, 8)), labels)

    @pytest.mark.parametrize(
        ("perturbed", "first"), [([(1, 5)], "share[l=2,k=5]"), ([(1, 2), (0, 7)], "share[l=1,k=7]")]
    )
    def test_one_comparison_names_the_first_failure(self, perturbed, first, monkeypatch):
        # One comparison tests every deviation; the labels name the first
        # failing basis in (sender, k) order, whatever order they broke in.
        real = bases._phase_vectors

        def perturb(rows):
            vectors = real(rows)
            for i, k in perturbed:
                vectors[i, k, 0, 0] += 1e-6
            return vectors

        rows = random_phase_shares(np.random.default_rng(111), 4).shares
        bases.phase_bases_from_rows(rows, protocol._SHARE_LABELS)
        monkeypatch.setattr(bases, "_phase_vectors", perturb)
        with pytest.raises(ValueError, match=rf"^basis {re.escape(first)} not orthonormal: deviation \S+$"):
            bases.phase_bases_from_rows(rows, protocol._SHARE_LABELS)

    @pytest.mark.parametrize(
        ("deviation", "fails"), [(NORM_TOL, False), (np.nextafter(NORM_TOL, 1.0), True), (np.inf, True)]
    )
    def test_one_comparison_at_the_tolerance(self, deviation, fails, monkeypatch):
        # A deviation of exactly NORM_TOL passes, so a later failure is the first.
        deviations = np.zeros((2, 8))
        deviations[1, 6] = deviation
        monkeypatch.setattr(bases, "gram_deviation", lambda vectors: deviations)
        if fails:
            with pytest.raises(ValueError, match=rf"^basis share\[l=2,k=6\] not orthonormal: deviation {deviation:g}$"):
                bases.phase_bases_from_rows(np.zeros((2, 8)), protocol._SHARE_LABELS)
            return
        assert bases.phase_bases_from_rows(np.zeros((2, 8)), protocol._SHARE_LABELS)[1] is deviations
        deviations[1, 7] = 2.0
        with pytest.raises(ValueError, match=r"^basis share\[l=2,k=7\] not orthonormal: deviation 2$"):
            bases.phase_bases_from_rows(np.zeros((2, 8)), protocol._SHARE_LABELS)

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

    @pytest.mark.parametrize("change", [flip_entry, swap_rows], ids=["flipped", "rows swapped"])
    def test_a_replaced_sign_pattern_reaches_only_the_phase_bases(self, change, monkeypatch):
        # The mutant checks swap in an edited SIGN_PATTERN to break the phase
        # bases alone: the magnitude sender's basis keeps its bits.
        x, row = distinct_profile(), distinct_phases().delta
        before = bases._phase_vectors([row])
        mutant = SIGN_PATTERN.copy()
        change(mutant)
        monkeypatch.setattr(bases, "SIGN_PATTERN", mutant)
        assert_bits_equal(AmplitudeProfile(x.x).basis.vectors, x.basis.vectors)
        assert not np.array_equal(bases._phase_vectors([row]), before)

    @pytest.mark.parametrize("n_rows", [1, 4])
    def test_stack_is_contiguous_so_the_flat_view_shares_it(self, n_rows):
        # The stacked Gram product and the copy into measurement_bases's
        # record read the stack in order; flattening it is a view, not a copy.
        rows = random_phase_shares(np.random.default_rng(110), n_rows + 1).shares
        vectors = bases._phase_vectors(rows)
        assert vectors.shape == (n_rows, 8, 8, 8) and vectors.flags.c_contiguous
        assert np.shares_memory(vectors.reshape(-1, 8, 8), vectors)
        for i, row in enumerate(rows):
            for k in range(8):
                assert np.array_equal(vectors[i, k].view(np.uint64), per_k_vectors(row, k).view(np.uint64))

    def test_views_match_per_k_builders(self):
        x = distinct_profile()
        delta = distinct_phases()
        shares = random_phase_shares(np.random.default_rng(108), 4)
        sets = measurement_bases(x, delta, 2)
        for k in range(8):
            single = phase_basis(k, delta)
            assert (sets.labels[1][k], sets.deviations[1, k]) == (single.label, single.deviation)
            assert np.array_equal(sets.vectors[1, k], single.vectors)
        sets = measurement_bases(x, shares, 4)
        for l in (1, 2, 3):
            for k in range(8):
                single = share_basis(k, l, shares)
                assert (sets.labels[l][k], sets.deviations[l, k]) == (single.label, single.deviation)
                assert np.array_equal(sets.vectors[l, k], single.vectors)


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
