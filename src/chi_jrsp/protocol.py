"""End-to-end runners for both joint remote preparation protocols.

Two senders: one knows the eight magnitudes, the other the eight phases of a
four-qubit chi-type target. N senders: the phases are split additively across
N-1 senders. The shared channel is three GHZ states, one qubit of each held
by every party. After the magnitude sender announces her 3-qubit outcome k,
each phase sender measures in a basis conditioned on k and announces; the
receiver applies a Pauli correction on his three qubits and expands onto the
four-qubit chi-type support with an ancilla and three CNOTs. Every one of the
8**N joint outcomes succeeds with certainty, at 3N classical bits per run.
The two-sender protocol is the N = 2 case with one share row, so every path
takes the phase input as a PhaseProfile or as PhaseShares, and
`_bases_stack` alone turns it into bases, one profile or several.

The channel (1/sqrt 8) sum_m |m>...|m> keeps its 8-term diagonal through
every measurement: measuring a triple in basis row b multiplies it entrywise
by conj(b). So branch (k, j_1..j_{N-1}) leaves the receiver in
normalize(conj(A[k]) * conj(B_1[k][j_1]) * ...). Every run is one walk
over that form, `_walk`, which keeps every branch for exhaustive runs and
`table`, the named digits for forced runs, and the drawn digits for sampled
runs. `run_branches` returns a run as one batched `Branches` record, which
verify reports from; `transcripts` reads it as one transcript per branch,
the row view that `run_two_sender`, `run_n_sender` and the `run` command
share. The dense chain over all 3(N+1) qubits, `_dense_branch`, is the test
oracle, and `_collapse_branches` the tests' bit-for-bit reference walk.

Runs and `table` take each correction from the digits, as a Pauli frame. Where
it misses, and always in `derive_correction`, a brute-force oracle searches all
64 per-qubit Pauli triples for the one that maps the receiver's collapsed state
onto the compressed target, so the runners double as verification.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import bases
from .bases import AmplitudeProfile, PhaseProfile, PhaseShares

# fidelity_up_to_phase stays importable here: perfbench/tracer.py wraps it.
from .qstate import (  # noqa: F401
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    BasisSet,
    StateVector,
    apply_cnot,
    basis_state,
    fidelity_up_to_phase,
    measure_in_basis,
    tensor,
)

MAX_SENDERS = 5
FIDELITY_TOL = 1e-10

# Basis labels, entry k for outcome k, of a PhaseProfile's sender and of share senders l = 1, 2, ...
_PHASE_LABELS = (tuple(f"phase[k={k}]" for k in range(8)),)
_SHARE_LABELS = tuple(tuple(f"share[l={l},k={k}]" for k in range(8)) for l in range(1, MAX_SENDERS))

# Per-qubit correction alphabet in deterministic search order. "ZX" means
# Z applied after X, i.e. the matrix product Z @ X.
CORRECTION_OPS = ("I", "X", "Z", "ZX")
_OP_MATRIX = {
    "I": PAULI_I,
    "X": PAULI_X,
    "Z": PAULI_Z,
    "ZX": PAULI_Z @ PAULI_X,
}

# All 64 correction triples in search order, with their 8x8 matrices on the
# receiver's triple (first receiver qubit most significant). Each matrix is a
# signed permutation, applied as (P v)[m] == _TRIPLE_SIGN[t, m] * v[_TRIPLE_PERM[t, m]].
_TRIPLES = tuple(itertools.product(CORRECTION_OPS, repeat=3))
_TRIPLE_MATRIX = np.array([np.kron(np.kron(_OP_MATRIX[a], _OP_MATRIX[b]), _OP_MATRIX[c]) for a, b, c in _TRIPLES])
_TRIPLE_PERM = np.abs(_TRIPLE_MATRIX).argmax(axis=2)
_TRIPLE_SIGN = np.take_along_axis(_TRIPLE_MATRIX, _TRIPLE_PERM[..., None], axis=2)[..., 0].real
# The signs as complex, the type numpy casts them to before it multiplies a
# complex state; and each column t of the permutations inverted, with its
# signs in that order: _INVERSE_PERM[_TRIPLE_PERM[t, m], t] == m (a scatter,
# not argsort, whose sort kernels a fresh process would page in).
_TRIPLE_CSIGN = _TRIPLE_SIGN.astype(complex)
_INVERSE_PERM = np.empty((8, len(_TRIPLES)), dtype=np.intp)
_INVERSE_PERM[_TRIPLE_PERM, np.arange(len(_TRIPLES))[:, None]] = np.arange(8)
_INVERSE_CSIGN = np.empty((8, len(_TRIPLES)), dtype=complex)
_INVERSE_CSIGN[_TRIPLE_PERM, np.arange(len(_TRIPLES))[:, None]] = _TRIPLE_SIGN

# _SPREAD[v] is the _TRIPLES index of X (twice it: Z) on the receiver qubits
# set in v, as each qubit's op index is x + 2z: the XOR of two indices is the
# Pauli product up to sign. The frame's Z bits come from bases.WALSH_INDEX,
# the index whose Walsh characters are the rows of both measurement layouts.
_SPREAD = np.array([16 * (v >> 2) + 4 * (v >> 1 & 1) + (v & 1) for v in range(8)])

# Indices of the eight even-parity four-qubit kets, in target order: the
# fourth bit of each ket is the parity of the first three.
CHI_SUPPORT = (0, 3, 5, 6, 9, 10, 12, 15)
_CHI_INDEX = np.array(CHI_SUPPORT)

# Amplitude of each of the channel's eight terms.
_CHANNEL_AMPLITUDE = 1.0 / (2.0 * np.sqrt(2.0))

# build_correction_table derives its corrections on the profile of this
# seed and checks them on the profile of the next one.
_TABLE_SEED = 7042

# Trials per sampler chunk, each walked at once: keeps the walk's (chunk, 8, 8)
# intermediates at 256 KiB however many trials a campaign draws. On five-sender
# runs of 20000 trials, 1024 raised the process's peak RSS by about 0.7 MiB; 256 did not.
_SAMPLE_CHUNK = 256

# Rows per correction-search chunk: keeps the (chunk, 64) complex overlap
# block at 64 KiB however many branches a run has. One unchunked product
# over 512 three-sender branches added about 1 MiB to the process's RSS.
_SEARCH_CHUNK = 64

CorrectionTriple = tuple[str, str, str]


def corrections_of(triples: np.ndarray) -> list[CorrectionTriple]:
    """The correction triples at these indices into _TRIPLES."""
    return [_TRIPLES[t] for t in triples.tolist()]


class NoCorrectionFound(Exception):
    """No Pauli triple reaches the fidelity threshold; signals a transcription bug."""


@dataclass(frozen=True)
class MeasurementRecord:
    party: str
    basis: str
    outcome: int
    probability: float


@dataclass(frozen=True)
class ProtocolTranscript:
    """One branch of a `Branches` record, as the `run` command reports it.

    `outcome` is the announced digits (k, j_1, ..., j_{N-1}), with one
    measurement record per digit. `probability` is the joint probability of
    the announced outcomes and equals the product of the per-record
    probabilities. `classical_bits` is 3 bits per announcing party, 3N in total.
    """

    outcome: tuple[int, ...]
    measurements: tuple[MeasurementRecord, ...]
    classical_bits: int
    correction: CorrectionTriple
    final_state: StateVector
    fidelity: float
    probability: float


@dataclass(frozen=True)
class Branches:
    """Every branch of one run as arrays; row b of each array is branch b."""

    labels: tuple[tuple[str, ...], ...]  # labels[p][k]: party p's basis after the announced outcome k
    outcomes: np.ndarray  # (B, N) announced digits k, j_1, ..., j_{N-1}
    steps: np.ndarray  # (B, N) each party's outcome probability given the outcomes before it
    triples: np.ndarray  # (B,) index into _TRIPLES of each branch's correction
    finals: np.ndarray  # (B, 16) corrected, parity-expanded receiver states
    fidelities: np.ndarray  # (B,) fidelity of each final state with the target

    @property
    def probabilities(self) -> np.ndarray:
        """Each row's steps multiplied left to right: np.prod(steps, axis=1)'s bits."""
        return functools.reduce(np.multiply, self.steps.T)

    @property
    def corrections(self) -> list[CorrectionTriple]:
        return corrections_of(self.triples)


def _target_amps(x: AmplitudeProfile, phases: PhaseProfile | PhaseShares) -> np.ndarray:
    """The compressed target's amplitudes x_j e^(i delta_j), shares composed first.
    The checks of `compose_phases` and `StateVector` cannot fail on validated
    records: the rows sum to finite phases with entry 0 a sum of zeros, and
    |x_j e^(i delta_j)| is x_j to an ulp, whose squares sum to 1 within NORM_TOL."""
    delta = np.add.reduce(phases.shares, axis=0) if isinstance(phases, PhaseShares) else phases.delta
    return x.x * np.exp(1j * delta)


def compressed_target(x: AmplitudeProfile, phases: PhaseProfile | PhaseShares) -> StateVector:
    """Three-qubit form of the target, one amplitude per index 0..7; shares compose first."""
    return StateVector(_target_amps(x, phases))


def target_state(x: AmplitudeProfile, phases: PhaseProfile | PhaseShares) -> StateVector:
    """Four-qubit target: the compressed target on the even-parity kets."""
    return StateVector(_expand_parity(compressed_target(x, phases).amps[None])[0])


def parity_expand(state3: StateVector) -> StateVector:
    """Append an ancilla |0> and CNOT it from qubits 2, 1, 0 in turn.

    Maps |abc> to |abc, a xor b xor c>, carrying a three-qubit state onto
    the even-parity four-qubit support. This is the dense circuit; the
    runners place amplitudes on CHI_SUPPORT directly (`_expand_parity`).
    """
    if state3.n_qubits != 3:
        raise ValueError(f"parity_expand needs a 3-qubit state, got {state3.n_qubits}")
    full = tensor(state3, basis_state(1, 0))
    for control in (2, 1, 0):
        full = apply_cnot(full, control, 3)
    return full


def _expand_parity(states3: np.ndarray) -> np.ndarray:
    """parity_expand over a batch: row m of each state goes to CHI_SUPPORT[m]."""
    out = np.zeros((len(states3), 16), dtype=complex)
    out[:, _CHI_INDEX] = states3
    return out


def prepare_channel(n_senders: int) -> StateVector:
    """Product of three GHZ states, one qubit of each per party.

    The register is party-major over the n_senders senders and the
    receiver: party p (the magnitude sender first, the receiver last) holds
    qubits 3p..3p+2, and qubit 3p+g is in GHZ group g. Eight nonzero
    amplitudes of 1/(2 sqrt 2): every GHZ group is jointly all-0 or all-1
    across its parties, so the group bits m, repeated once per party, give
    index m * (2**n - 1) // 7 on the n = 3(n_senders + 1) qubits.
    """
    n = 3 * (n_senders + 1)
    amps = np.zeros(2**n, dtype=complex)
    amps[np.arange(8) * (2**n - 1) // 7] = _CHANNEL_AMPLITUDE
    return StateVector(amps)


def _dense_branch(
    x: AmplitudeProfile, phases: PhaseProfile | PhaseShares, outcome
) -> tuple[StateVector, list[float]]:
    """Test oracle: the receiver's collapsed state and each party's step
    probability, simulated on the full 3(N+1)-qubit register.

    Parties measure in register order, so after each removal the next
    party's triple is always qubits (0, 1, 2) of what remains.
    """
    outcome = [int(d) for d in outcome]
    sets = measurement_bases(x, phases, len(outcome))
    state = prepare_channel(len(outcome))
    steps = []
    for p, digit in enumerate(outcome):
        basis = BasisSet(sets.vectors[p, outcome[0]], label=sets.labels[p][outcome[0]])
        branch = measure_in_basis(state, (0, 1, 2), basis)[digit]
        steps.append(branch.probability)
        state = branch.collapsed
    return state, steps


@dataclass(frozen=True)
class MeasurementBases:
    """Every party's measurement bases for one profile: `vectors[p, k]`
    (read-only, one basis vector per row) is party p's basis after the
    announced outcome k, `labels[p][k]` its label and `deviations[p, k]` its
    Gram deviation. The magnitude sender (p = 0) measures first, so her slot
    repeats one basis."""

    vectors: np.ndarray  # (N, 8, 8, 8) complex
    labels: tuple[tuple[str, ...], ...]
    deviations: np.ndarray  # (N, 8)


def _require_senders(n_senders: int) -> None:
    if not 2 <= n_senders <= MAX_SENDERS:
        raise ValueError(f"n_senders must be in 2..{MAX_SENDERS}, got {n_senders}")


def _bases_stack(profiles, n_senders: int) -> tuple[np.ndarray, list[tuple[tuple[str, ...], ...]], np.ndarray]:
    """`MeasurementBases`'s read-only vectors, labels and deviations of each (x, phases)
    of `profiles`, stacked: x's own basis, then one build of every profile's phase
    rows, which names the first failing basis in (profile, sender, k) order."""
    _require_senders(n_senders)
    vectors = np.empty((len(profiles), n_senders, 8, 8, 8), dtype=complex)
    deviations, rows, labels = np.empty((len(profiles), n_senders, 8)), [], []
    for p, (x, phases) in enumerate(profiles):
        shared = isinstance(phases, PhaseShares)
        rows.append(phases.shares if shared else phases.delta[None])
        if len(rows[p]) != n_senders - 1:
            raise ValueError(f"the phase input covers {len(rows[p]) + 1} senders, expected {n_senders}")
        labels.append(((x.basis.label,) * 8, *(_SHARE_LABELS[: len(rows[p])] if shared else _PHASE_LABELS)))
        vectors[p, 0], deviations[p, 0] = x.basis.vectors, x.basis.deviation
    phase_labels = [row for profile in labels for row in profile[1:]]
    phase_vectors, phase_deviations = bases.phase_bases_from_rows(np.concatenate(rows), phase_labels)
    vectors[:, 1:] = phase_vectors.reshape(vectors[:, 1:].shape)
    deviations[:, 1:] = phase_deviations.reshape(deviations[:, 1:].shape)
    vectors.setflags(write=False)
    return vectors, labels, deviations


def measurement_bases(x: AmplitudeProfile, phases: PhaseProfile | PhaseShares, n_senders: int) -> MeasurementBases:
    """Every party's measurement bases for one profile: `_bases_stack` of that one."""
    return MeasurementBases(*(stack[0] for stack in _bases_stack([(x, phases)], n_senders)))


def _collapse_branches(rows: np.ndarray, outcomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Receiver 8-vectors and per-party step probabilities for a batch of branches.

    Row b of `outcomes` holds (k, j_1, ..., j_{n-1}) for the first n parties;
    `rows` is the conjugate of a `measurement_bases(...).vectors` stack. The
    state is renormalized after every measurement, as the measurement leaves
    it, so `steps[b, p]` is party p's outcome probability given the outcomes
    before it, and a prefix of the senders leaves the state that the next
    sender measures. No run calls it: it gathers one row per branch, and the
    tests hold `_walk` to it bit for bit.
    """
    k = outcomes[:, 0]
    state = np.full((len(outcomes), 8), _CHANNEL_AMPLITUDE, dtype=complex)
    steps = np.empty(outcomes.shape)
    for p in range(outcomes.shape[1]):
        state = rows[p, k, outcomes[:, p]] * state
        steps[:, p] = np.sum(np.abs(state) ** 2, axis=1)
        state /= np.sqrt(steps[:, p])[:, None]
    return state, steps


def _sum8(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) of a C-contiguous (..., 8) float array, bit for bit and faster: numpy
    adds an axis of 8 as ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)) onto +0.0 (checked on numpy 2.4)."""
    a = a[..., ::2] + a[..., 1::2]
    a = a[..., ::2] + a[..., 1::2]
    return a[..., 0] + a[..., 1] + 0.0


def _walk(rows: np.ndarray, select=lambda p, probs: None) -> tuple[np.ndarray, np.ndarray]:
    """`_collapse_branches` of the branches that `select` keeps, bit for bit,
    for `rows` (..., n, 8, 8, 8): states (..., B, 8) and steps (..., B, n).

    From the channel's diagonal, party p measures each of its S states with
    all eight rows of the state's basis for its k (the magnitude sender, with
    no k yet, row d of basis d). `select(p, probs)` maps the (..., S, 8) child
    probabilities to one digit per state (a lone root broadcasts) or to None,
    keeping all children in lexicographic order. Every elementwise operation
    is `_collapse_branches`'s, in order, each sum over 8 by `_sum8`.
    """
    *lead, n = rows.shape[:-3]
    diagonal = np.arange(8)
    state = np.empty((*lead, 1, 8), dtype=complex)
    state.fill(_CHANNEL_AMPLITUDE)
    taken = []
    for p in range(n):
        # Gathered ("clip" never clips 0..7), then multiplied in place: a fresh product is slower.
        children = (rows[..., 0, diagonal, diagonal, :][..., None, :, :] if p == 0
                    else rows[..., p, :, :, :].take(k, axis=-3, mode="clip"))
        children *= state[..., :, None, :]
        probs = _sum8(np.abs(children) ** 2)
        digits = select(p, probs)
        if digits is None:
            state, step = children.reshape(*lead, -1, 8), probs.reshape(*lead, -1)
            k = diagonal if p == 0 else k.repeat(8)
        else:
            held = np.arange(probs.shape[-2])
            state, step = children[..., held, digits, :], probs[..., held, digits]
            k = digits if p == 0 else k
        state /= np.sqrt(step)[..., None]
        taken.append(step)
    steps = np.empty((*state.shape[:-1], n))
    for p, step in enumerate(taken):  # each state's step, to every branch below it
        steps.reshape(*step.shape, -1, n)[..., p] = step[..., None]
    return state, steps


def _records(labels: Sequence[Sequence[str]], outcome: list[int], steps: list[float]) -> tuple[MeasurementRecord, ...]:
    return tuple(
        MeasurementRecord(f"bob{p}" if p else "alice", labels[p][outcome[0]], digit, step)
        for p, (digit, step) in enumerate(zip(outcome, steps))
    )


def _forced_outcome(alice_k: int, bob_j, n_senders: int) -> np.ndarray:
    """The outcome row (alice_k, *bob_j) as a (1, n_senders) array, checked:
    a negative digit would index the bases from the end and run a branch."""
    outcome = np.array([[alice_k, *bob_j]], dtype=np.intp)
    if outcome.shape[1] != n_senders:
        raise ValueError(f"forced outcome lists {outcome.shape[1]} digits, expected {n_senders}")
    if ((outcome < 0) | (outcome > 7)).any():
        raise ValueError("outcome digits must be in 0..7")
    return outcome


def _collapse_branch(
    x: AmplitudeProfile, phases: PhaseProfile | PhaseShares, alice_k: int, bob_j
) -> tuple[StateVector, float, tuple[MeasurementRecord, ...]]:
    """Force the branch (alice_k, bob_j) and return the receiver's collapsed
    3-qubit state, the joint branch probability, and the step records."""
    sets = measurement_bases(x, phases, 1 + len(bob_j))
    digits = _forced_outcome(alice_k, bob_j, 1 + len(bob_j))
    states, steps = _walk(sets.vectors.conj(), lambda p, probs: digits[:, p])
    records = _records(sets.labels, digits[0].tolist(), steps[0].tolist())
    return StateVector(states[0]), float(np.prod(steps[0])), records


def _correction_weights(target3: np.ndarray) -> np.ndarray:
    """(8, 64) matrix whose column t is triple t applied to the conjugated target:
    (states @ weights)[b, t] is the target's overlap with row b corrected by t.
    Entry [_TRIPLE_PERM[t, m], t] is _TRIPLE_SIGN[t, m] * conj(target3[m]), gathered."""
    return _INVERSE_CSIGN * target3.conj().take(_INVERSE_PERM)


def _search_corrections(states: np.ndarray, target3: np.ndarray) -> np.ndarray:
    """For each row of `states`, the index into _TRIPLES of the first triple in
    search order whose corrected state reaches fidelity 1 - FIDELITY_TOL
    with `target3`, a chunk of rows in one product. `derive_correction`
    searches every branch, and `_corrections` the rows its frame misses.
    """
    weights = _correction_weights(target3)
    found = np.empty(len(states), dtype=np.intp)
    for start in range(0, len(states), _SEARCH_CHUNK):
        hit = np.abs(states[start : start + _SEARCH_CHUNK] @ weights) ** 2 >= 1.0 - FIDELITY_TOL
        if not np.all(hit.any(axis=1)):
            raise NoCorrectionFound("no Pauli triple reaches the fidelity threshold")
        found[start : start + _SEARCH_CHUNK] = hit.argmax(axis=1)
    return found


def _walsh_xor(outcomes: np.ndarray) -> np.ndarray:
    """s(k) ^ s(j_1) ^ ... of each outcome row, for s = bases.WALSH_INDEX, one XOR per column."""
    return functools.reduce(np.bitwise_xor, bases.WALSH_INDEX[outcomes.T])


def _corrections(outcomes: np.ndarray, states: np.ndarray, target3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each branch's correction as the search picks it, and its corrected state. On the paper's layout the
    branch is the target under the frame Z^z X^k, z = s(k) ^ s(j_1) ^ ... for s = bases.WALSH_INDEX: its ties
    are the frame XOR the target's own, and the search takes the least. Rows whose corrected state misses
    |corrected . conj(target3)|^2 >= 1 - FIDELITY_TOL (a NaN misses) are searched and corrected again; that
    test sums in another order than the search's, so a value within an ulp or two of the threshold could flip."""
    z = _walsh_xor(outcomes)
    ties = (np.abs(target3 @ _correction_weights(target3)) ** 2 >= 1.0 - FIDELITY_TOL).nonzero()[0]
    found = (np.arange(len(_TRIPLES)) ^ ties[:, None]).min(axis=0)[_SPREAD[outcomes[:, 0]] + 2 * _SPREAD[z]]
    corrected = _apply_corrections(states, found)
    missed = ~(np.abs(corrected @ target3.conj()) ** 2 >= 1.0 - FIDELITY_TOL)
    if missed.any():
        found[missed] = _search_corrections(states[missed], target3)
        corrected[missed] = _apply_corrections(states[missed], found[missed])
    return found, corrected


def _search_correction(collapsed: StateVector, target3: StateVector) -> CorrectionTriple:
    """Brute-force the 64 per-qubit Pauli triples in deterministic order."""
    return _TRIPLES[_search_corrections(collapsed.amps[None], target3.amps)[0]]


def _apply_corrections(states: np.ndarray, found: np.ndarray) -> np.ndarray:
    """Apply triple _TRIPLES[found[b]] to row b of `states`: one gather from the
    flat rows, then the signs, in place."""
    index = _TRIPLE_PERM.take(found, axis=0)
    index += np.arange(0, 8 * len(states), 8)[:, None]
    corrected = states.reshape(-1).take(index)
    return np.multiply(_TRIPLE_CSIGN.take(found, axis=0), corrected, out=corrected)


def _corrected(corrected: np.ndarray, target3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parity-expanded corrected states and their fidelities with the target. A one-row
    batch is padded to two, so a branch's bits do not depend on its batch. The product
    conjugates the rows in place and back, which is exact and spares a (B, 16) copy."""
    finals = _expand_parity(corrected)
    padded = finals.repeat(2, axis=0) if len(finals) == 1 else finals
    fidelities = np.abs(np.conjugate(padded, out=padded) @ _expand_parity(target3[None])[0]) ** 2
    np.conjugate(padded, out=padded)
    return finals, fidelities[: len(finals)]


def _apply_correction(state3: StateVector, triple: CorrectionTriple) -> StateVector:
    """Single-branch view of `_apply_corrections`."""
    return StateVector(_apply_corrections(state3.amps[None], [_TRIPLES.index(triple)])[0])


def derive_correction(
    alice_k: int, bob_j, x: AmplitudeProfile, phases: PhaseProfile | PhaseShares
) -> CorrectionTriple:
    """Correction oracle for one announced outcome combination.

    Simulates the branch to the receiver's collapsed state and searches all
    64 triples for one whose corrected state matches the compressed target
    at fidelity 1 - FIDELITY_TOL. The search order (I, X, Z, ZX per qubit,
    first receiver qubit outermost) makes the result deterministic.
    """
    collapsed, _, _ = _collapse_branch(x, phases, alice_k, bob_j)
    return _search_correction(collapsed, compressed_target(x, phases))


def _all_outcomes(n_senders: int) -> np.ndarray:
    """All 8**n_senders outcome rows (k, j_1, ..., j_{N-1}) in lexicographic order."""
    return np.indices((8,) * n_senders).reshape(n_senders, -1).T


@dataclass(frozen=True)
class CorrectionTable:
    """Corrections for every enumerated outcome, with verification fidelities.

    Row b of each column is outcome row b, and rows come in lexicographic
    order. Each correction was checked at build time on a profile drawn
    independently of the one the triples were derived from.
    """

    n_senders: int
    outcomes: np.ndarray  # (B, N) digits k, j_1, ..., j_{N-1}
    triples: np.ndarray  # (B,) index into _TRIPLES of each row's correction
    fidelities: np.ndarray  # (B,) fidelity of each correction on the check profile

    @property
    def corrections(self) -> list[CorrectionTriple]:
        return corrections_of(self.triples)

    @property
    def entries(self) -> Mapping[tuple[int, ...], CorrectionTriple]:
        """Read-only view: outcome digits (k, j_1, ..., j_{N-1}) -> correction."""
        return MappingProxyType(dict(zip(map(tuple, self.outcomes.tolist()), self.corrections)))


def build_correction_table(n_senders: int) -> CorrectionTable:
    """Derive (and independently verify) corrections for all 8**n_senders
    outcomes, at any sender count in 2..MAX_SENDERS. Derivation and
    verification use two independently seeded generic profiles, so a table
    entry only survives if it is profile-independent. Both profiles' bases
    come from one stack, and their branches from one walk of it."""
    _require_senders(n_senders)
    derive, check = bases.random_inputs(n_senders, _TABLE_SEED), bases.random_inputs(n_senders, _TABLE_SEED + 1)
    vectors, _, _ = _bases_stack((derive, check), n_senders)
    (derived, checked), _ = _walk(vectors.conj())
    outcomes = _all_outcomes(n_senders)
    found, _ = _corrections(outcomes, derived, _target_amps(*derive))
    fidelities = np.abs(_apply_corrections(checked, found).conj() @ _target_amps(*check)) ** 2
    failed = (fidelities < 1.0 - FIDELITY_TOL).nonzero()[0]
    if failed.size:
        b = failed[0]
        raise NoCorrectionFound(
            f"correction {_TRIPLES[found[b]]} for outcome {tuple(outcomes[b].tolist())} fails on a fresh profile"
            f" (fidelity {float(fidelities[b])!r})"
        )
    return CorrectionTable(n_senders, outcomes, found, fidelities)


def _sampled_outcomes(
    rows: np.ndarray, n_senders: int, rng: np.random.Generator, trials: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw `trials` branches from the true joint outcome distribution, and
    return their outcomes, states and steps, walking chunks of _SAMPLE_CHUNK.

    Each digit is `Generator.choice(8, p=q)` unrolled over the trial's child
    probabilities q: one uniform u per (trial, party), in the row-major order
    of a trial-by-trial loop, and the index is the number of entries of
    cumsum(q) / cumsum(q)[-1] that are <= u. So the seed-to-outcome map is
    that of one `rng.choice` per trial and party.
    """
    outcomes = np.empty((trials, n_senders), dtype=np.intp)
    states = np.empty((trials, 8), dtype=complex)
    steps = np.empty((trials, n_senders))
    for start in range(0, trials, _SAMPLE_CHUNK):
        u = rng.random((min(_SAMPLE_CHUNK, trials - start), n_senders))
        chunk = slice(start, start + len(u))

        def draw(p, probs, u=u, drawn=outcomes[chunk]):
            cdf = (probs / _sum8(probs)[..., None]).cumsum(axis=-1)
            cdf /= cdf[:, -1:]
            if not np.isfinite(cdf).all():
                raise ValueError("probabilities contain NaN")
            # At the magnitude sender, the root's one CDF serves every trial.
            return (cdf <= u[:, p, None]).sum(axis=1, out=drawn[:, p])

        states[chunk], steps[chunk] = _walk(rows, draw)
    return outcomes, states, steps


def run_branches(x: AmplitudeProfile, phases: PhaseProfile | PhaseShares, sets: MeasurementBases, mode: str,
                 seed: int | None, trials: int, force: tuple[int, tuple[int, ...]] | None) -> Branches:
    """Run the protocol on `phases`: a PhaseProfile for two senders, or
    PhaseShares with one row per phase sender for any sender count. `sets`
    is `measurement_bases(x, phases, n_senders)`, built by the caller, and
    its stack's length is the sender count.

    Exhaustive mode computes all 8**n_senders branches in
    outcome-lexicographic order; sampled mode draws `trials` branches
    from the true distribution; `force` runs the one branch it names, in
    either mode and whatever `trials` says.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}; expected 'exhaustive' or 'sampled'")
    n_senders = len(sets.vectors)
    rows = sets.vectors.conj()
    if force is not None:
        outcomes = _forced_outcome(force[0], force[1], n_senders)
        states, steps = _walk(rows, lambda p, probs: outcomes[:, p])
    elif mode == "sampled":
        outcomes, states, steps = _sampled_outcomes(rows, n_senders, np.random.default_rng(seed), trials)
    else:
        outcomes = _all_outcomes(n_senders)
        states, steps = _walk(rows)

    target3 = _target_amps(x, phases)
    found, corrected = _corrections(outcomes, states, target3)
    finals, fidelities = _corrected(corrected, target3)
    return Branches(sets.labels, outcomes, steps, found, finals, fidelities)


def transcripts(run: Branches) -> list[ProtocolTranscript]:
    """One transcript per branch of `run`, in its branch order."""
    bits = 3 * run.outcomes.shape[1]
    branches = zip(run.outcomes.tolist(), run.steps.tolist(), run.corrections, run.finals,
                   run.fidelities.tolist(), run.probabilities.tolist())
    return [
        ProtocolTranscript(
            outcome=tuple(o), measurements=_records(run.labels, o, step), classical_bits=bits,
            correction=correction, final_state=StateVector(final), fidelity=fidelity, probability=probability,
        )
        for o, step, correction, final, fidelity, probability in branches
    ]


def run_two_sender(
    x: AmplitudeProfile,
    delta: PhaseProfile,
    mode: str = "exhaustive",
    seed: int | None = None,
    trials: int = 1,
    force: tuple[int, tuple[int, ...]] | None = None,
) -> list[ProtocolTranscript]:
    """Run the two-sender protocol. Every branch carries probability 1/64
    and final fidelity 1 up to tolerance."""
    return transcripts(run_branches(x, delta, measurement_bases(x, delta, 2), mode, seed, trials, force))


def run_n_sender(
    n_senders: int,
    x: AmplitudeProfile,
    shares: PhaseShares,
    mode: str = "exhaustive",
    seed: int | None = None,
    trials: int = 1,
    force: tuple[int, tuple[int, ...]] | None = None,
) -> list[ProtocolTranscript]:
    """Run the N-sender protocol; the target phases are the composed shares."""
    return transcripts(run_branches(x, shares, measurement_bases(x, shares, n_senders), mode, seed, trials, force))


def classical_cost(n_senders: int) -> int:
    """Announced classical bits per run: 3 per sender."""
    if n_senders < 2:
        raise ValueError("need at least 2 senders")
    return 3 * n_senders
