import numpy as np
import pytest

from chi_jrsp.qstate import (
    BasisSet,
    StateVector,
    apply_cnot,
    basis_state,
    fidelity_up_to_phase,
    ghz_state,
    gram_deviation,
    ket_bits,
    ket_index,
    measure_in_basis,
    tensor,
)

INV_2SQRT2 = 1.0 / (2.0 * np.sqrt(2.0))


def random_state(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(v / np.linalg.norm(v))


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestStateVector:
    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 0.0, 0.0])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVector([np.nan, 0.0])

    def test_zero_qubit_state(self):
        s = StateVector([1.0])
        assert s.n_qubits == 0

    def test_immutable(self):
        s = basis_state(2, 0)
        with pytest.raises(AttributeError):
            s.n_qubits = 3
        with pytest.raises(ValueError):
            s.amps[0] = 0.0


class TestIndexConvention:
    def test_round_trip_all_indices_up_to_12_qubits(self):
        for n in range(1, 13):
            for i in range(2**n):
                assert ket_index(ket_bits(i, n)) == i

    def test_most_significant_first(self):
        # |0 1 1> -> index 3, q0 is the leftmost label
        assert ket_index((0, 1, 1)) == 3
        assert ket_bits(4, 3) == (1, 0, 0)


class TestTensor:
    def test_basis_product(self):
        out = tensor(basis_state(1, 0), basis_state(1, 1))
        assert np.allclose(out.amps, [0, 1, 0, 0])

    def test_plus_times_zero(self):
        plus = StateVector(np.array([1, 1]) / np.sqrt(2))
        out = tensor(plus, basis_state(1, 0))
        assert np.allclose(out.amps, np.array([1, 0, 1, 0]) / np.sqrt(2))

    def test_triple_ghz_product(self):
        # First factor most significant: nonzero where each 3-bit block is 000 or 111.
        out = tensor(ghz_state(3), tensor(ghz_state(3), ghz_state(3)))
        expected = sorted(64 * i + 8 * j + k for i in (0, 7) for j in (0, 7) for k in (0, 7))
        nonzero = np.flatnonzero(np.abs(out.amps) > 1e-15)
        assert nonzero.tolist() == expected
        assert np.allclose(out.amps[nonzero], INV_2SQRT2)


class TestApplyCnot:
    def test_flips_target_when_control_set(self):
        assert np.allclose(apply_cnot(basis_state(2, 2), 0, 1).amps, [0, 0, 0, 1])

    def test_identity_on_zero_control(self):
        assert np.allclose(apply_cnot(basis_state(2, 0), 0, 1).amps, [1, 0, 0, 0])

    def test_entangles_plus(self):
        s = StateVector(np.array([1, 0, 1, 0]) / np.sqrt(2))
        out = apply_cnot(s, 0, 1)
        assert np.allclose(out.amps, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_reversed_direction(self):
        # control on the less significant qubit
        assert np.allclose(apply_cnot(basis_state(2, 1), 1, 0).amps, [0, 0, 0, 1])

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            apply_cnot(basis_state(2, 0), 1, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_cnot(basis_state(2, 0), 0, 2)


def embed(vector8, qubits, rest: StateVector, n: int) -> StateVector:
    """Full-register state with `vector8` on `qubits` and `rest` on the others."""
    others = [q for q in range(n) if q not in qubits]
    amps = np.zeros(2**n, dtype=complex)
    for m in range(8):
        mbits = ket_bits(m, 3)
        for r_idx in range(2 ** len(others)):
            rbits = ket_bits(r_idx, len(others)) if others else ()
            full = [0] * n
            for q, b in zip(qubits, mbits):
                full[q] = b
            for q, b in zip(others, rbits):
                full[q] = b
            amps[ket_index(full)] = vector8[m] * (rest.amps[r_idx] if others else 1.0)
    return StateVector(amps)


class TestMeasureInBasis:
    def computational_basis(self):
        return BasisSet(np.eye(8, dtype=complex), label="computational")

    def test_ghz_in_computational_basis(self):
        branches = measure_in_basis(ghz_state(3), (0, 1, 2), self.computational_basis())
        probs = [b.probability for b in branches]
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        assert probs[7] == pytest.approx(0.5, abs=1e-12)
        for k in range(1, 7):
            assert probs[k] == pytest.approx(0.0, abs=1e-14)
            assert branches[k].collapsed is None
        # measuring the whole register leaves a zero-qubit phase
        assert branches[0].collapsed.n_qubits == 0

    def test_completeness_random(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            s = random_state(rng, 6)
            basis = BasisSet(random_unitary(rng, 8))
            qubits = tuple(rng.permutation(6)[:3])
            probs = [b.probability for b in measure_in_basis(s, qubits, basis)]
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_collapse_consistency(self):
        # Re-expanding a branch with its measured ket recovers the branch weight.
        rng = np.random.default_rng(22)
        s = random_state(rng, 5)
        basis = BasisSet(random_unitary(rng, 8))
        qubits = (1, 3, 4)
        for branch in measure_in_basis(s, qubits, basis):
            if branch.collapsed is None:
                continue
            rebuilt = embed(basis.vectors[branch.outcome], qubits, branch.collapsed, 5)
            overlap = abs(np.vdot(rebuilt.amps, s.amps)) ** 2
            assert overlap == pytest.approx(branch.probability, abs=1e-12)
            # and the rebuilt state re-measures to this outcome with certainty
            again = measure_in_basis(rebuilt, qubits, basis)
            assert again[branch.outcome].probability == pytest.approx(1.0, abs=1e-12)

    def test_remaining_qubits_keep_register_order(self):
        # measuring (q1,q2,q3) of |10101> yields outcome 010 and leaves (q0,q4) = |11>
        s = basis_state(5, 0b10101)
        branches = measure_in_basis(s, (1, 2, 3), self.computational_basis())
        hit = [b for b in branches if b.probability > 0.5]
        assert len(hit) == 1
        assert hit[0].outcome == 0b010
        assert np.allclose(hit[0].collapsed.amps, basis_state(2, 0b11).amps)

    def test_non_orthonormal_basis_rejected(self):
        bad = np.eye(8, dtype=complex)
        bad[1] = bad[0]
        basis = BasisSet(bad, check=False)
        with pytest.raises(ValueError):
            measure_in_basis(ghz_state(3), (0, 1, 2), basis)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            measure_in_basis(ghz_state(3), (0, 1, 1), self.computational_basis())


class TestBasisSet:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            BasisSet(np.eye(4))

    def test_rejects_non_orthonormal_on_check(self):
        bad = np.eye(8, dtype=complex)
        bad[0, 0] = 1.1
        with pytest.raises(ValueError):
            BasisSet(bad)

    def test_gram_deviation_of_duplicate(self):
        bad = np.eye(8, dtype=complex)
        bad[1] = bad[0]
        assert gram_deviation(bad) == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [np.nan, 1e200])
    def test_non_finite_gram_is_infinite_deviation(self, entry):
        # A NaN deviation would pass every `dev > NORM_TOL` test.
        bad = np.full((8, 8), entry, dtype=complex)
        assert gram_deviation(bad) == np.inf
        with pytest.raises(ValueError, match="deviation inf"):
            BasisSet(bad)
        assert gram_deviation(np.stack([np.eye(8), bad])).tolist() == [0.0, np.inf]

    def test_stacked_gram_deviation_is_per_matrix(self):
        rng = np.random.default_rng(23)
        stack = np.stack([random_unitary(rng, 8) for _ in range(6)])
        stack[4] += 1e-3 * rng.standard_normal((8, 8))
        deviations = gram_deviation(stack)
        assert deviations.shape == (6,)
        assert [gram_deviation(v) for v in stack] == deviations.tolist()


class TestFidelity:
    def test_self(self):
        rng = np.random.default_rng(31)
        s = random_state(rng, 3)
        assert fidelity_up_to_phase(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity_up_to_phase(basis_state(1, 0), basis_state(1, 1)) == 0.0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(32)
        s = random_state(rng, 4)
        for theta in np.linspace(0.0, 2 * np.pi, 7):
            rotated = StateVector(np.exp(1j * theta) * s.amps)
            assert fidelity_up_to_phase(s, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_up_to_phase(basis_state(1, 0), basis_state(2, 0))
