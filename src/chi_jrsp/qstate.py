"""Dense statevector engine.

Pure-state simulation over a register of qubits: tensor construction, the
CNOT gate, joint projective measurement of qubit triples in arbitrary
orthonormal bases, and phase-insensitive fidelity. It is the test oracle for
the reduced engine in `protocol`.

Index convention is most-significant-first: the basis ket |q0 q1 ... q_{n-1}>
maps to the integer index sum_i q_i * 2**(n-1-i), so q0 is the leftmost ket
label and qubit 0 is the most significant bit. All values are immutable after
construction; every operation returns a new state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances: algebraic identities (norms, unitarity, orthonormality) must
# hold to NORM_TOL; probabilities below NEGLIGIBLE_PROBABILITY are branch
# dead ends and carry no collapsed state.
NORM_TOL = 1e-12
NEGLIGIBLE_PROBABILITY = 1e-14

_EYE8 = np.eye(8)


def ket_index(bits) -> int:
    """Map a bit sequence (q0 first, most significant) to its basis index."""
    index = 0
    for b in bits:
        index = (index << 1) | int(b)
    return index


def ket_bits(index: int, n_qubits: int) -> tuple[int, ...]:
    """Inverse of ket_index: basis index to per-qubit bits, q0 first."""
    return tuple((index >> (n_qubits - 1 - i)) & 1 for i in range(n_qubits))


class StateVector:
    """Normalized complex amplitude vector over n qubits.

    The amplitude array has length exactly 2**n_qubits, every entry is
    finite, and the Euclidean norm is within NORM_TOL of 1. A zero-qubit
    state (a single amplitude of modulus 1) is allowed; it is what remains
    after measuring out an entire register.
    """

    __slots__ = ("n_qubits", "amps")

    def __init__(self, amps):
        amps = np.array(amps, dtype=complex).reshape(-1)
        n = amps.size.bit_length() - 1
        if amps.size != 2**n:
            raise ValueError(f"amplitude count {amps.size} is not a power of two")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amps", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __repr__(self):
        return f"StateVector(n_qubits={self.n_qubits})"


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Computational basis ket |index> over n_qubits."""
    if not 0 <= index < 2**n_qubits:
        raise ValueError(f"index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def ghz_state(n_qubits: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) over n_qubits."""
    if n_qubits < 1:
        raise ValueError("ghz_state needs at least one qubit")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return StateVector(amps)


class BasisSet:
    """Eight orthonormal 8-dimensional vectors: a joint 3-qubit measurement basis.

    Rows of `vectors` are the basis vectors. Pairwise inner products must
    satisfy |<v_p|v_q> - delta_pq| <= NORM_TOL unless check=False, which
    exists so that validation tooling can inspect defective candidates.
    `deviation` is the Gram deviation, computed once at construction, check
    or not; runs hold their bases as one `protocol.MeasurementBases` stack.
    """

    __slots__ = ("vectors", "label", "deviation")

    def __init__(self, vectors, label: str = "", *, check: bool = True):
        vectors = np.array(vectors, dtype=complex)
        if vectors.shape != (8, 8):
            raise ValueError(f"basis must be 8 vectors of dimension 8, got {vectors.shape}")
        deviation = gram_deviation(vectors)
        if check:
            require_orthonormal(label, deviation)
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "deviation", deviation)

    def __setattr__(self, name, value):
        raise AttributeError("BasisSet is immutable")

    def __repr__(self):
        return f"BasisSet(label={self.label!r})"


def require_orthonormal(label: str, deviation: float) -> None:
    """Raise unless the Gram deviation measured for basis `label` is within NORM_TOL."""
    if deviation > NORM_TOL:
        raise ValueError(f"basis {label or '<unnamed>'} not orthonormal: deviation {deviation:g}")


def gram_deviation(vectors: np.ndarray) -> float | np.ndarray:
    """Max entrywise deviation of the Gram matrix from the identity; inf, not NaN, on overflow.

    A stack of bases (..., 8, 8) gives one deviation per basis; one basis
    gives a float.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = vectors @ vectors.conj().swapaxes(-1, -2)
        gram -= _EYE8
        dev = np.maximum.reduce(np.abs(gram).reshape(*gram.shape[:-2], -1), axis=-1)
    if dev.ndim == 0:
        return float(dev) if np.isfinite(dev) else np.inf
    dev[~np.isfinite(dev)] = np.inf
    return dev


@dataclass(frozen=True)
class MeasurementBranch:
    """One outcome of a joint projective measurement.

    `collapsed` is the normalized post-measurement state of the remaining
    qubits (the measured triple is removed from the register). It is None
    when the branch probability is below NEGLIGIBLE_PROBABILITY, in which
    case no well-defined collapsed state exists.
    """

    outcome: int
    probability: float
    collapsed: StateVector | None


def _require_qubits(state: StateVector, qubits, *, count: int) -> tuple[int, ...]:
    qubits = tuple(int(q) for q in qubits)
    if len(qubits) != count:
        raise ValueError(f"expected {count} qubit indices, got {len(qubits)}")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit indices {qubits}")
    for q in qubits:
        if not 0 <= q < state.n_qubits:
            raise ValueError(f"qubit {q} out of range for {state.n_qubits}-qubit state")
    return qubits


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; a's qubits occupy the most significant positions."""
    return StateVector(np.kron(a.amps, b.amps))


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip `target` on components where `control` is 1."""
    control, target = _require_qubits(state, (control, target), count=2)
    n = state.n_qubits
    psi = state.amps.reshape([2] * n)
    out = psi.copy()
    sel10 = [slice(None)] * n
    sel11 = [slice(None)] * n
    sel10[control], sel10[target] = 1, 0
    sel11[control], sel11[target] = 1, 1
    out[tuple(sel10)] = psi[tuple(sel11)]
    out[tuple(sel11)] = psi[tuple(sel10)]
    return StateVector(out.reshape(-1))


def measure_in_basis(state: StateVector, qubits, basis: BasisSet) -> list[MeasurementBranch]:
    """Jointly measure an ordered qubit triple in an orthonormal basis.

    Returns all eight branches. Branch k has probability equal to the
    squared norm of the projection onto basis vector k; its collapsed state
    covers the remaining qubits in their original register order. The
    probabilities sum to 1 within NORM_TOL.
    """
    qubits = _require_qubits(state, qubits, count=3)
    if basis.deviation > NORM_TOL:
        raise ValueError(f"measurement basis not orthonormal: deviation {basis.deviation:g}")
    n = state.n_qubits
    psi = state.amps.reshape([2] * n)
    psi = np.moveaxis(psi, qubits, (0, 1, 2)).reshape(8, -1)
    projected = basis.vectors.conj() @ psi
    probs = np.sum(np.abs(projected) ** 2, axis=1)
    return [
        MeasurementBranch(k, p, None if p < NEGLIGIBLE_PROBABILITY else StateVector(projected[k] / np.sqrt(p)))
        for k, p in enumerate(probs.tolist())
    ]


def fidelity_up_to_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>|**2, invariant under a global phase on either argument."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit count mismatch: {a.n_qubits} vs {b.n_qubits}")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)
