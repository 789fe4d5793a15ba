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
`measurement_bases` alone turns it into bases.

The channel (1/sqrt 8) sum_m |m>...|m> keeps its 8-term diagonal through every
measurement: measuring a triple in basis row b multiplies it entrywise by
conj(b). So branch (k, j_1..j_{N-1}) leaves the receiver in
normalize(conj(A[k]) * conj(B_1[k][j_1]) * ...). A phase sender's rows for k
are its row 0 times +-1 signs. A +-1 factor commutes with a complex product
and with division by a positive real, and keeps every bit of |.|^2: so
`_class_grid` walks one branch per k, and every branch of k has its steps bit
for bit and its state negated by the XOR of its rows' sign masks, exact up to
the sign of zero. Exhaustive runs and `table` correct each (k, mask) class
once, `_every_branch`; sampled and forced runs read their steps from the
grid's table and collapse only their own branches. `run_branches` returns a
run as one batched `Branches` record of the corrected 8-vectors and their
fidelities, which verify reports from; the parity expansion is an isometry, so
it keeps them. `transcripts` expands the states into one transcript per
branch, the row view of `run_two_sender`, `run_n_sender` and `run`. The test
oracle is the dense chain over all 3(N+1) qubits, `_dense_branch`;
`_collapse_branches` is the tests' reference walk.

Runs and `table` take each correction from the digits, as a Pauli frame; a
branch the frame misses is an oracle failure, a defective layout. The
independent oracle, `derive_correction`, searches all 64 per-qubit Pauli
triples for the one that maps the receiver's collapsed state onto the target.
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

# All 64 correction triples in search order, first receiver qubit outermost.
# Triple t holds each qubit's op index as x + 2z, so _FLIPS[t] gathers its X
# bits and _FLIPS[t >> 1] its Z bits. Z^z X^x is the signed permutation
# (P v)[m] == _TRIPLE_SIGN[t, m] * v[_TRIPLE_PERM[t, m]] == (-1)**popcount(z & m) * v[m ^ x]:
# row x of the layouts' XOR table, signed by Walsh character z. So the XOR of
# two indices is their product up to sign.
_TRIPLES = tuple(itertools.product(CORRECTION_OPS, repeat=3))
_FLIPS = np.array([t >> 2 & 4 | t >> 1 & 2 | t & 1 for t in range(len(_TRIPLES))])
_TRIPLE_PERM = bases._PHASE_ARGS[_FLIPS]
_TRIPLE_SIGN = bases.WALSH_CHARACTERS[_FLIPS[np.arange(len(_TRIPLES)) >> 1]]
# The signs as complex, the type numpy casts them to before it multiplies a
# complex state; and the permutations inverted, column t for triple t, with
# their signs in that order. XOR undoes itself, so the inverse is the transpose.
_TRIPLE_CSIGN = _TRIPLE_SIGN.astype(complex)
_INVERSE_PERM = _TRIPLE_PERM.T.copy()
_INVERSE_CSIGN = np.take_along_axis(_TRIPLE_CSIGN, _TRIPLE_PERM, 1).T.copy()

# _SPREAD[v] is the _TRIPLES index of X (twice it: Z) on the receiver qubits
# set in v. The frame's Z bits come from bases.WALSH_INDEX, the index whose
# Walsh characters are the rows of both measurement layouts.
_SPREAD = np.array([16 * (v >> 2) + 4 * (v >> 1 & 1) + (v & 1) for v in range(8)])

# Indices of the eight even-parity four-qubit kets, in target order: the
# fourth bit of each ket is the parity of the first three.
CHI_SUPPORT = (0, 3, 5, 6, 9, 10, 12, 15)
_CHI_INDEX = np.array(CHI_SUPPORT)

# Amplitude of each of the channel's eight terms, and the diagonal that they form.
_CHANNEL_AMPLITUDE = 1.0 / (2.0 * np.sqrt(2.0))
_CHANNEL = np.full(8, _CHANNEL_AMPLITUDE, dtype=complex)

# `table`'s profile, written out so that a table draws no random numbers: row 0 the magnitudes, rows 1-4 the shares
# of bases.random_inputs(5, 7043). N senders take rows 1..N-1, the bits of random_inputs(N, 7043) (N = 2: delta).
_TABLE_PROFILE = np.array([
    0.36598210100651096, 0.10157532695210196, 0.494857033296043, 0.39249124263034796, 0.301474985882037,
    0.5691772100239295, 0.012891053086067712, 0.2044276228411696, 0.0, 3.147842848187958, 0.1440980502129142,
    4.199449641362581, 3.1516670735407875, 5.482024709101525, 2.2925583583848868, 2.7456587053616226, 0.0,
    4.52153357347193, 1.656416342303085, 1.0966028886786712, 3.3886771292999294, 0.8816802646162013, 0.5399853316725112,
    2.4424419260766506, 0.0, 5.901864368023648, 5.395839849676644, 4.887312044385722, 4.468708404344465,
    1.91923811454032, 2.7400478936933093, 2.3216581372123324, 0.0, 0.13005660585641762, 1.1820629218796006,
    3.5757003276958343, 0.684102186176436, 5.352024201527792, 4.843033730618248, 3.4536020488348917,
]).reshape(5, 8)

# Trials per sampler chunk: bounds its gathers of CDF and basis rows (64 and 160 KiB at N = 5).
_SAMPLE_CHUNK = 256

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
    corrected: np.ndarray  # (B, 8) corrected receiver states, before the parity expansion
    fidelities: np.ndarray  # (B,) fidelity of each corrected state with the compressed target

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


def _dense_branch(x: AmplitudeProfile, phases: PhaseProfile | PhaseShares, outcome) -> tuple[StateVector, list[float]]:
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


def measurement_bases(x: AmplitudeProfile, phases: PhaseProfile | PhaseShares, n_senders: int) -> MeasurementBases:
    """Every party's measurement bases for one profile: x's own basis, then one build of
    the phase rows, which names the first failing basis in (sender, k) order."""
    _require_senders(n_senders)
    shared = isinstance(phases, PhaseShares)
    rows = phases.shares if shared else phases.delta[None]
    if len(rows) != n_senders - 1:
        raise ValueError(f"the phase input covers {len(rows) + 1} senders, expected {n_senders}")
    labels = ((x.basis.label,) * 8, *(_SHARE_LABELS[: len(rows)] if shared else _PHASE_LABELS))
    vectors, deviations = np.empty((n_senders, 8, 8, 8), dtype=complex), np.empty((n_senders, 8))
    vectors[0], deviations[0] = x.basis.vectors, x.basis.deviation
    vectors[1:], deviations[1:] = bases.phase_bases_from_rows(rows, labels[1:])
    vectors.setflags(write=False)
    return MeasurementBases(vectors, labels, deviations)


def _collapse_branches(rows: np.ndarray, outcomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Receiver 8-vectors and per-party step probabilities for a batch of branches.

    Row b of `outcomes` holds (k, j_1, ..., j_{n-1}) for the first n parties;
    `rows` is the conjugate of a `measurement_bases(...).vectors` stack. The
    state is renormalized after every measurement, as the measurement leaves
    it, so `steps[b, p]` is party p's outcome probability given the outcomes
    before it, and a prefix of the senders leaves the state that the next
    sender measures. No run calls it: it gathers one row per branch, and the
    tests hold `_class_grid` and `_collapse_drawn` to it.
    """
    k = outcomes[:, 0]
    state = np.full((len(outcomes), 8), _CHANNEL_AMPLITUDE, dtype=complex)
    steps = np.empty(outcomes.shape)
    for p in range(outcomes.shape[1]):
        state = rows[p, k, outcomes[:, p]] * state
        steps[:, p] = np.sum(np.abs(state) ** 2, axis=1)
        state /= np.sqrt(steps[:, p])[:, None]
    return state, steps


def _class_grid(rows: np.ndarray, classes: slice) -> tuple[np.ndarray, np.ndarray]:
    """Walk one representative branch per k in `classes` on `rows` (n, 8, 8, 8), which takes every phase sender's
    row 0. Returns the (n, C, 8) step table, [p, c, j] party p's step for digit j on every branch of the c-th k
    (party 0's, whose digit is k, the root's on every c), and the representative's final state per k (C, 8). A
    middle sender's rows for k must be its row 0 up to entrywise signs, or ValueError. A +-1 factor commutes with
    a complex product and with division by a positive real, and changes no bit of |.|^2: so every branch of k has
    its digits' table steps, bit for bit, and if the last sender's rows are signed too, the representative's state
    negated where its rows' sign masks (`_every_branch`) XOR to 1, exact up to the sign of zero."""
    middle, first = rows[1:-1, classes], rows[1:-1, classes, :1]
    if len(rows) > 2 and not ((middle == first) | (middle == -first)).all():
        raise ValueError("a middle sender's basis rows must equal its row 0 up to entrywise signs")
    root = rows[0].diagonal().T * _CHANNEL  # row d of basis d
    state = root[classes]
    table = np.empty((len(rows), *state.shape))
    # np.add.reduce, np.sum's own reduction without its Python wrapper: the bits of `_collapse_branches`' sums.
    table[0] = np.add.reduce(np.abs(root) ** 2, axis=-1)
    step = table[0, 0, classes, None]
    for p in range(1, len(rows)):
        state = state / np.sqrt(step)
        children = rows[p, classes] * state[:, None]
        np.add.reduce(np.abs(children) ** 2, axis=-1, out=table[p])
        state, step = children[:, 0], table[p, :, :1]
    return table, state / np.sqrt(step)


def _every_branch(rows: np.ndarray, target3: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every branch of `rows` (n, 8, 8, 8) in lexicographic order, from `_class_grid`: the outcomes and steps
    (B, n), `_corrections`' triples, corrected states per class and fidelities, and each branch's class row. Each
    phase row's code is mask << 3 | WALSH_INDEX[j], where bit m of the mask, read from the live rows, is set if
    entry m is row 0's negated; a branch's class is its k and the XOR of its phase rows' codes, N - 2 outer XORs
    over the digit grid, so only 8 x |codes| states are corrected and checked: 64 on the paper's layout, whose
    codes are its Walsh indices. Every phase sender's rows must be its row 0 up to entrywise signs, or ValueError."""
    n = len(rows)
    table, finals = _class_grid(rows, slice(None))
    negated = rows[1:] == -rows[1:, :, :1]
    if not (negated[-1] | (rows[-1] == rows[-1, :, :1])).all():  # `_class_grid` checked the middle senders
        raise ValueError("a phase sender's basis rows must equal its row 0 up to entrywise signs")
    codes = negated @ (8 << np.arange(8)) | bases.WALSH_INDEX
    # Party p's [k, digit] arrays are viewed along axes 0 and p of the (8,) * n grid of branches.
    along = [(8,) + (1,) * (n - 1)] + [(8,) + (1,) * (p - 1) + (8,) + (1,) * (n - 1 - p) for p in range(1, n)]
    code = functools.reduce(np.bitwise_xor, [c.reshape(shape) for c, shape in zip(codes, along[1:])])
    live = np.bincount(code.reshape(-1), minlength=2048).nonzero()[0]  # the distinct codes, ascending
    slot = np.empty(2048, dtype=np.intp)
    slot[live] = np.arange(len(live))
    outcomes = _all_outcomes(n)
    row = slot[code].reshape(-1) + len(live) * outcomes[:, 0]  # class k * len(live) + slot
    states = np.where(live[:, None] >> np.arange(3, 11) & 1, -finals[:, None], finals[:, None]).reshape(-1, 8)
    classes = np.arange(8).repeat(len(live)), (bases.WALSH_INDEX[:, None] ^ live & 7).reshape(-1), row
    steps = np.empty((8,) * n + (n,))
    for p, shape in enumerate(along):  # party 0's digit is k: the diagonal of her table
        steps[..., p] = (table[0].diagonal() if p == 0 else table[p]).reshape(shape)
    return outcomes, steps.reshape(-1, n), *_corrections(outcomes, states, target3, classes), row


def _collapse_drawn(rows: np.ndarray, outcomes: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """`_collapse_branches`'s states of `outcomes`, bit for bit, in one pass
    that reads their `steps` (from a `_class_grid` table) instead of summing them."""
    drawn = rows[np.arange(outcomes.shape[1]), outcomes[:, :1], outcomes]
    state = _CHANNEL
    for row, norm in zip(drawn.transpose(1, 0, 2), np.sqrt(steps).T[..., None]):
        state = row * state
        state /= norm
    return state


def _records(labels: Sequence[Sequence[str]], outcome: list[int], steps: list[float]) -> tuple[MeasurementRecord, ...]:
    return tuple(
        MeasurementRecord(f"bob{p}" if p else "alice", labels[p][outcome[0]], digit, step)
        for p, (digit, step) in enumerate(zip(outcome, steps))
    )


def _forced_branch(rows: np.ndarray, alice_k: int, bob_j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The outcome row (alice_k, *bob_j) as a (1, n) array, checked (a negative digit would index the
    bases from the end and run a branch), and its states (1, 8) and steps (1, n), tabulating its k alone."""
    outcome = np.array([[alice_k, *bob_j]], dtype=np.intp)
    if outcome.shape[1] != len(rows):
        raise ValueError(f"forced outcome lists {outcome.shape[1]} digits, expected {len(rows)}")
    if ((outcome < 0) | (outcome > 7)).any():
        raise ValueError("outcome digits must be in 0..7")
    steps = _class_grid(rows, slice(outcome[0, 0], outcome[0, 0] + 1))[0][np.arange(len(rows)), 0, outcome[0]][None]
    return outcome, _collapse_drawn(rows, outcome, steps), steps


def _collapse_branch(x: AmplitudeProfile, phases: PhaseProfile | PhaseShares, alice_k: int,
                     bob_j) -> tuple[StateVector, float, tuple[MeasurementRecord, ...]]:
    """Force the branch (alice_k, bob_j) and return the receiver's collapsed
    3-qubit state, the joint branch probability, and the step records."""
    sets = measurement_bases(x, phases, 1 + len(bob_j))
    digits, states, steps = _forced_branch(sets.vectors.conj(), alice_k, bob_j)
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
    with `target3`, all rows in one product: the oracle of `derive_correction`
    and of the tests, which no run or table calls.
    """
    hit = np.abs(states @ _correction_weights(target3)) ** 2 >= 1.0 - FIDELITY_TOL
    if not hit.any(axis=1).all():
        raise NoCorrectionFound("no Pauli triple reaches the fidelity threshold")
    return hit.argmax(axis=1)


def _walsh_xor(outcomes: np.ndarray) -> np.ndarray:
    """s(k) ^ s(j_1) ^ ... of each outcome row, for s = bases.WALSH_INDEX, one XOR per column."""
    return functools.reduce(np.bitwise_xor, bases.WALSH_INDEX[outcomes.T])


def _corrections(outcomes: np.ndarray, states: np.ndarray, target3: np.ndarray,
                 classes: tuple[np.ndarray, ...] | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each branch's correction as the search picks it, its corrected state and its fidelity |corrected .
    conj(target3)|^2, a one-row batch padded to two so that its bits are those of any batch. On the paper's
    layout the branch is the target under the frame Z^z X^k, z = s(k) ^ s(j_1) ^ ... for s = bases.WALSH_INDEX:
    its ties are the frame XOR the target's own, and the search takes the least. With `classes` = (k, z, row),
    `states` holds one state per class, which it corrects by the class's frame, and branch b takes class
    row[b]'s triple and fidelity. A fidelity below 1 - FIDELITY_TOL (or NaN) raises NoCorrectionFound for the
    first such branch; it sums in another order than the search's, so a value within an ulp or two of the
    threshold could flip."""
    k, z, row = (outcomes[:, 0], _walsh_xor(outcomes), slice(None)) if classes is None else classes
    ties = (np.abs(target3 @ _correction_weights(target3)) ** 2 >= 1.0 - FIDELITY_TOL).nonzero()[0]
    found = (np.arange(len(_TRIPLES)) ^ ties[:, None]).min(axis=0)[_SPREAD[k] + 2 * _SPREAD[z]]
    corrected = _apply_corrections(states, found)
    padded = corrected.repeat(2, axis=0) if len(corrected) == 1 else corrected
    fidelities = (np.abs(padded @ target3.conj()) ** 2)[: len(corrected)]
    found, fidelities = found[row], fidelities[row]
    missed = (~(fidelities >= 1.0 - FIDELITY_TOL)).nonzero()[0]
    if missed.size:
        b = missed[0]
        raise NoCorrectionFound(f"correction {_TRIPLES[found[b]]} for outcome {tuple(outcomes[b].tolist())}"
                                f" misses the target (fidelity {float(fidelities[b])!r})")
    return found, corrected, fidelities


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
    order. Each correction is the Pauli frame of its digits, checked at build
    time on a generic seeded profile.
    """

    n_senders: int
    outcomes: np.ndarray  # (B, N) digits k, j_1, ..., j_{N-1}
    triples: np.ndarray  # (B,) index into _TRIPLES of each row's correction
    fidelities: np.ndarray  # (B,) fidelity of each correction on the seeded profile

    @property
    def corrections(self) -> list[CorrectionTriple]:
        return corrections_of(self.triples)

    @property
    def entries(self) -> Mapping[tuple[int, ...], CorrectionTriple]:
        """Read-only view: outcome digits (k, j_1, ..., j_{N-1}) -> correction."""
        return MappingProxyType(dict(zip(map(tuple, self.outcomes.tolist()), self.corrections)))


def build_correction_table(n_senders: int) -> CorrectionTable:
    """The corrections of all 8**n_senders outcomes, at any sender count in 2..MAX_SENDERS, each
    checked on every branch of the generic profile of _TABLE_PROFILE. That profile has no ties, so
    the frame's triples are the ones the search derives there, as on any generic profile."""
    _require_senders(n_senders)
    x, rows = AmplitudeProfile(_TABLE_PROFILE[0]), _TABLE_PROFILE[1:n_senders]
    phases = PhaseProfile(rows[0]) if n_senders == 2 else PhaseShares(rows)
    outcomes, _, found, _, fidelities, _ = _every_branch(measurement_bases(x, phases, n_senders).vectors.conj(),
                                                         _target_amps(x, phases))
    return CorrectionTable(n_senders, outcomes, found, fidelities)


def _sampled_outcomes(
    rows: np.ndarray, n_senders: int, rng: np.random.Generator, trials: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw `trials` branches from the true joint outcome distribution, and return their outcomes,
    states and steps, in chunks of _SAMPLE_CHUNK. Each digit is `Generator.choice(8, p=q)` unrolled
    over q, row [p, k] of the op's `_class_grid` table: one uniform u per (trial, party), in the row-major
    order of a trial-by-trial loop, and the index is the number of entries of cumsum(q) / cumsum(q)[-1]
    that are <= u, as one `rng.choice` per trial and party draws. Zero or NaN steps raise ValueError
    only at a drawn k, and never warn."""
    with np.errstate(divide="ignore", invalid="ignore"):
        table = _class_grid(rows, slice(None))[0]
        cdf = (table / table.sum(axis=-1)[..., None]).cumsum(axis=-1)
        cdf /= cdf[..., -1:]
    finite = np.isfinite(cdf).all(axis=(0, 2))
    outcomes = np.empty((trials, n_senders), dtype=np.intp)
    states = np.empty((trials, 8), dtype=complex)
    steps = np.empty((trials, n_senders))
    for start in range(0, trials, _SAMPLE_CHUNK):
        u = rng.random((min(_SAMPLE_CHUNK, trials - start), n_senders))
        chunk = slice(start, start + len(u))
        drawn = outcomes[chunk]
        k = (cdf[0, 0] <= u[:, :1]).sum(axis=1, out=drawn[:, 0])
        if not finite[k].all():
            raise ValueError("probabilities contain NaN")
        (cdf[1:].take(k, axis=1) <= u.T[1:, :, None]).sum(axis=2, out=drawn[:, 1:].T)
        steps[chunk] = table[np.arange(n_senders), k[:, None], drawn]
        states[chunk] = _collapse_drawn(rows, drawn, steps[chunk])
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
    rows, target3 = sets.vectors.conj(), _target_amps(x, phases)
    if force is not None:
        outcomes, states, steps = _forced_branch(rows, *force)
    elif mode == "sampled":
        outcomes, states, steps = _sampled_outcomes(rows, n_senders, np.random.default_rng(seed), trials)
    else:
        outcomes, steps, found, corrected, fidelities, row = _every_branch(rows, target3)
        return Branches(sets.labels, outcomes, steps, found, corrected[row], fidelities)
    return Branches(sets.labels, outcomes, steps, *_corrections(outcomes, states, target3))


def transcripts(run: Branches) -> list[ProtocolTranscript]:
    """One transcript per branch of `run`, in its branch order."""
    bits = 3 * run.outcomes.shape[1]
    branches = zip(run.outcomes.tolist(), run.steps.tolist(), run.corrections, _expand_parity(run.corrected),
                   run.fidelities.tolist(), run.probabilities.tolist())
    return [
        ProtocolTranscript(
            outcome=tuple(o), measurements=_records(run.labels, o, step), classical_bits=bits,
            correction=correction, final_state=StateVector(final), fidelity=fidelity, probability=probability,
        )
        for o, step, correction, final, fidelity, probability in branches
    ]


def run_two_sender(x: AmplitudeProfile, delta: PhaseProfile, mode: str = "exhaustive", seed: int | None = None,
                   trials: int = 1, force: tuple[int, tuple[int, ...]] | None = None) -> list[ProtocolTranscript]:
    """Run the two-sender protocol. Every branch carries probability 1/64
    and final fidelity 1 up to tolerance."""
    return transcripts(run_branches(x, delta, measurement_bases(x, delta, 2), mode, seed, trials, force))


def run_n_sender(n_senders: int, x: AmplitudeProfile, shares: PhaseShares, mode: str = "exhaustive",
                 seed: int | None = None, trials: int = 1,
                 force: tuple[int, tuple[int, ...]] | None = None) -> list[ProtocolTranscript]:
    """Run the N-sender protocol; the target phases are the composed shares."""
    return transcripts(run_branches(x, shares, measurement_bases(x, shares, n_senders), mode, seed, trials, force))


def classical_cost(n_senders: int) -> int:
    """Announced classical bits per run: 3 per sender."""
    if n_senders < 2:
        raise ValueError("need at least 2 senders")
    return 3 * n_senders
