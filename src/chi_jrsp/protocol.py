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

The channel (1/sqrt 8) sum_m |m>...|m> keeps its 8-term diagonal through
every measurement: measuring a triple in basis row b multiplies it entrywise
by conj(b). So branch (k, j_1..j_{N-1}) leaves the receiver in
normalize(conj(A[k]) * conj(B_1[k][j_1]) * ...), and every branch, forced,
enumerated or sampled, is computed from that form by `_collapse_branches`.
`run_branches` returns a run as one batched `Branches` record, which verify
reports from; `transcripts` reads it as one transcript per branch, the row
view that `run_two_sender`, `run_n_sender` and the `run` command share. The
dense chain over all 3(N+1) qubits, `_dense_branch`, is the test oracle.

Corrections are not taken from a closed form: a brute-force oracle searches
all 64 per-qubit Pauli triples for the one that maps the receiver's collapsed
state onto the compressed target, so the runners double as verification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import bases
from .bases import AmplitudeProfile, PhaseProfile, PhaseShares

# fidelity_up_to_phase stays importable here: perfbench/tracer.py wraps it.
from .qstate import (  # noqa: F401
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    StateVector,
    apply_cnot,
    basis_state,
    fidelity_up_to_phase,
    measure_in_basis,
    tensor,
)

MAX_SENDERS = 5
FIDELITY_TOL = 1e-10

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

# Indices of the eight even-parity four-qubit kets, in target order: the
# fourth bit of each ket is the parity of the first three.
CHI_SUPPORT = (0, 3, 5, 6, 9, 10, 12, 15)

# Amplitude of each of the channel's eight terms.
_CHANNEL_AMPLITUDE = 1.0 / (2.0 * np.sqrt(2.0))

# build_correction_table derives its corrections on the profile of this
# seed and checks them on the profile of the next one.
_TABLE_SEED = 7042

# Trials per sampler chunk: keeps the sampler's (chunk, 8, 8) intermediates
# at 256 KiB however many trials a campaign draws. On five-sender runs of
# 20000 trials, 1024 raised the process's peak RSS by about 0.7 MiB; 256 did not.
_SAMPLE_CHUNK = 256

CorrectionTriple = tuple[str, str, str]


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

    labels: list[list[str]]  # labels[p][k]: party p's basis after the announced outcome k
    outcomes: np.ndarray  # (B, N) announced digits k, j_1, ..., j_{N-1}
    steps: np.ndarray  # (B, N) each party's outcome probability given the outcomes before it
    corrections: list[CorrectionTriple]
    finals: np.ndarray  # (B, 16) corrected, parity-expanded receiver states
    fidelities: np.ndarray  # (B,) fidelity of each final state with the target

    @property
    def probabilities(self) -> np.ndarray:
        return np.prod(self.steps, axis=1)


def target_state(x: AmplitudeProfile, delta: PhaseProfile) -> StateVector:
    """Four-qubit target: magnitudes and phases on the even-parity kets."""
    amps = np.zeros(16, dtype=complex)
    amps[list(CHI_SUPPORT)] = x.x * np.exp(1j * delta.delta)
    return StateVector(amps)


def compressed_target(x: AmplitudeProfile, delta: PhaseProfile) -> StateVector:
    """Three-qubit form of the target, one amplitude per index 0..7."""
    return StateVector(x.x * np.exp(1j * delta.delta))


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
    out[:, CHI_SUPPORT] = states3
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


def _composed_phase(phases: PhaseProfile | PhaseShares) -> PhaseProfile:
    if isinstance(phases, PhaseShares):
        return bases.compose_phases(phases)
    return phases


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
        branch = measure_in_basis(state, (0, 1, 2), sets[p][outcome[0]])[digit]
        steps.append(branch.probability)
        state = branch.collapsed
    return state, steps


def measurement_bases(
    x: AmplitudeProfile, phases: PhaseProfile | PhaseShares, n_senders: int
) -> list[list[bases.BasisSet]]:
    """Every party's measurement bases for one profile.

    `sets[p][k]` is party p's basis after the announced outcome k; the
    magnitude sender (p = 0) measures first, so her basis ignores k. A
    PhaseProfile serves the one phase sender of a two-sender run, and
    PhaseShares give phase sender l its share row l.
    """
    if not 2 <= n_senders <= MAX_SENDERS:
        raise ValueError(f"n_senders must be in 2..{MAX_SENDERS}, got {n_senders}")
    if isinstance(phases, PhaseShares):
        phase_sets = [[bases.share_basis(k, l, phases) for k in range(8)] for l in range(1, phases.n_senders)]
    else:
        phase_sets = [[bases.phase_basis(k, phases) for k in range(8)]]
    if len(phase_sets) != n_senders - 1:
        raise ValueError(f"the phase input covers {len(phase_sets) + 1} senders, expected {n_senders}")
    return [[bases.amplitude_basis(x)] * 8, *phase_sets]


def _basis_rows(sets: list[list[bases.BasisSet]]) -> tuple[np.ndarray, list[list[str]]]:
    """`measurement_bases` sets as conjugated rows and labels: `rows[p, k, d]`
    is the conjugate of row d of basis `sets[p][k]`, `labels[p][k]` its label."""
    return np.array([[b.vectors for b in row] for row in sets]).conj(), [[b.label for b in row] for row in sets]


def _collapse_branches(rows: np.ndarray, outcomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Receiver 8-vectors and per-party step probabilities for a batch of branches.

    Row b of `outcomes` holds (k, j_1, ..., j_{n-1}) for the first n parties;
    `rows` comes from `_basis_rows`. The state is renormalized after every
    measurement, as the measurement leaves it, so `steps[b, p]` is party p's
    outcome probability given the outcomes before it, and a prefix of the
    senders leaves the state that the next sender measures.
    """
    k = outcomes[:, 0]
    state = np.full((len(outcomes), 8), _CHANNEL_AMPLITUDE, dtype=complex)
    steps = np.empty(outcomes.shape)
    for p in range(outcomes.shape[1]):
        state = rows[p, k, outcomes[:, p]] * state
        steps[:, p] = np.sum(np.abs(state) ** 2, axis=1)
        state /= np.sqrt(steps[:, p])[:, None]
    return state, steps


def _records(labels: list[list[str]], outcome: list[int], steps: list[float]) -> tuple[MeasurementRecord, ...]:
    return tuple(
        MeasurementRecord(f"bob{p}" if p else "alice", labels[p][outcome[0]], digit, step)
        for p, (digit, step) in enumerate(zip(outcome, steps))
    )


def _collapse_branch(
    x: AmplitudeProfile, phases: PhaseProfile | PhaseShares, alice_k: int, bob_j
) -> tuple[StateVector, float, tuple[MeasurementRecord, ...]]:
    """Force the branch (alice_k, bob_j) and return the receiver's collapsed
    3-qubit state, the joint branch probability, and the step records."""
    outcome = [int(alice_k), *(int(j) for j in bob_j)]
    rows, labels = _basis_rows(measurement_bases(x, phases, len(outcome)))
    states, steps = _collapse_branches(rows, np.array([outcome]))
    return StateVector(states[0]), float(np.prod(steps[0])), _records(labels, outcome, steps[0].tolist())


def _search_corrections(states: np.ndarray, target3: np.ndarray) -> np.ndarray:
    """For each row of `states`, the index into _TRIPLES of the first triple in
    search order whose corrected state reaches fidelity 1 - FIDELITY_TOL
    with `target3`."""
    found = np.full(len(states), -1)
    weights = _TRIPLE_SIGN * target3.conj()
    for t in range(len(_TRIPLES)):
        searching = found < 0
        if not searching.any():
            break
        overlap = states[:, _TRIPLE_PERM[t]] @ weights[t]
        found[searching & (np.abs(overlap) ** 2 >= 1.0 - FIDELITY_TOL)] = t
    if np.any(found < 0):
        raise NoCorrectionFound("no Pauli triple reaches the fidelity threshold")
    return found


def _search_correction(collapsed: StateVector, target3: StateVector) -> CorrectionTriple:
    """Brute-force the 64 per-qubit Pauli triples in deterministic order."""
    return _TRIPLES[_search_corrections(collapsed.amps[None], target3.amps)[0]]


def _apply_corrections(states: np.ndarray, found: np.ndarray) -> np.ndarray:
    """Apply triple _TRIPLES[found[b]] to row b of `states`."""
    return _TRIPLE_SIGN[found] * np.take_along_axis(states, _TRIPLE_PERM[found], axis=1)


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
    target3 = compressed_target(x, _composed_phase(phases))
    return _search_correction(collapsed, target3)


def _all_outcomes(n_senders: int) -> np.ndarray:
    """All 8**n_senders outcome rows (k, j_1, ..., j_{N-1}) in lexicographic order."""
    return np.indices((8,) * n_senders).reshape(n_senders, -1).T


@dataclass(frozen=True)
class CorrectionTable:
    """Corrections for every enumerated outcome, with verification fidelities.

    `entries` maps (k, j_1, ..., j_{N-1}) to a correction triple; each entry
    was checked at build time on a profile drawn independently of the one
    the triples were derived from.
    """

    n_senders: int
    entries: dict[tuple[int, ...], CorrectionTriple]
    fidelities: dict[tuple[int, ...], float]


def build_correction_table(n_senders: int, outcomes=None) -> CorrectionTable:
    """Derive (and independently verify) corrections over outcome combinations.

    Enumerates all 8**n_senders outcomes for up to three senders; beyond
    that a caller-specified outcome subset is required. Derivation and
    verification use two independently seeded generic profiles, so a table
    entry only survives if it is profile-independent.
    """
    if outcomes is None:
        if n_senders > 3:
            raise ValueError("full enumeration is limited to 3 senders; pass an outcome subset")
        grid = _all_outcomes(n_senders)
    else:
        outcomes = list(outcomes)
        if any(len(outcome) != n_senders for outcome in outcomes):
            raise ValueError(f"every outcome must list {n_senders} digits")
        grid = np.array(outcomes, dtype=np.intp).reshape(len(outcomes), n_senders)
        if np.any((grid < 0) | (grid > 7)):
            raise ValueError("outcome digits must be in 0..7")
    keys = list(map(tuple, grid.tolist()))

    derive_x, derive_phases = bases.random_inputs(n_senders, _TABLE_SEED)
    derived, _ = _collapse_branches(_basis_rows(measurement_bases(derive_x, derive_phases, n_senders))[0], grid)
    found = _search_corrections(derived, compressed_target(derive_x, _composed_phase(derive_phases)).amps)

    check_x, check_phases = bases.random_inputs(n_senders, _TABLE_SEED + 1)
    checked, _ = _collapse_branches(_basis_rows(measurement_bases(check_x, check_phases, n_senders))[0], grid)
    check_target = compressed_target(check_x, _composed_phase(check_phases))
    fidelities = np.abs(_apply_corrections(checked, found).conj() @ check_target.amps) ** 2
    failed = np.flatnonzero(fidelities < 1.0 - FIDELITY_TOL)
    if failed.size:
        b = failed[0]
        raise NoCorrectionFound(
            f"correction {_TRIPLES[found[b]]} for outcome {keys[b]} fails on a fresh profile"
            f" (fidelity {float(fidelities[b])!r})"
        )
    triples = [_TRIPLES[t] for t in found.tolist()]
    return CorrectionTable(n_senders, dict(zip(keys, triples)), dict(zip(keys, fidelities.tolist())))


def _sampled_outcomes(rows: np.ndarray, n_senders: int, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Draw `trials` branches from the true joint outcome distribution.

    Each trial draws the magnitude sender's k, then each phase sender's j in
    turn, from that party's probabilities given the outcomes drawn before it:
    the row norms of `rows[p, k] * state`, where `state` is the receiver's
    8-vector after the draws so far. The magnitude sender's rows are the
    same for every k, so `rows[0, 0]` serves before k is drawn.

    Trials are drawn in chunks of _SAMPLE_CHUNK, each party over a whole
    chunk at once. Every draw is `Generator.choice(8, p=q)` unrolled: one
    uniform u per (trial, party), taken in row-major order as the
    trial-by-trial loop took them, and the index is the number of entries
    of cumsum(q) / cumsum(q)[-1] that are <= u. So the seed-to-outcome map
    is that of one `rng.choice` per trial and party.
    """
    outcomes = np.empty((trials, n_senders), dtype=np.intp)
    for start in range(0, trials, _SAMPLE_CHUNK):
        u = rng.random((min(_SAMPLE_CHUNK, trials - start), n_senders))
        drawn = outcomes[start : start + len(u)]
        chunk = np.arange(len(u))
        state = np.full((len(u), 8), _CHANNEL_AMPLITUDE, dtype=complex)
        for p in range(n_senders):
            branches = (rows[p, drawn[:, 0]] if p else rows[0, 0]) * state[:, None, :]
            probs = np.sum(np.abs(branches) ** 2, axis=-1)
            cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
            cdf /= cdf[:, -1:]
            if not np.all(np.isfinite(cdf)):
                raise ValueError("probabilities contain NaN")
            j = drawn[:, p] = np.sum(cdf <= u[:, p, None], axis=1)
            state = branches[chunk, j] / np.sqrt(probs[chunk, j])[:, None]
    return outcomes


def run_branches(
    x: AmplitudeProfile,
    phases: PhaseProfile | PhaseShares,
    sets: list[list[bases.BasisSet]],
    mode: str,
    seed: int | None,
    trials: int,
    force: tuple[int, tuple[int, ...]] | None,
) -> Branches:
    """Run the protocol on `phases`: a PhaseProfile for two senders, or
    PhaseShares with one row per phase sender for any sender count. `sets`
    is `measurement_bases(x, phases, n_senders)`, built by the caller, and
    its length is the sender count.

    Exhaustive mode computes all 8**n_senders branches (up to three senders)
    in outcome-lexicographic order; sampled mode draws `trials` branches
    from the true distribution; `force` runs the one branch it names.
    """
    n_senders = len(sets)
    rows, labels = _basis_rows(sets)
    if force is not None:
        outcomes = np.array([[force[0], *force[1]]], dtype=np.intp)
        if outcomes.shape[1] != n_senders:
            raise ValueError(f"forced outcome lists {outcomes.shape[1]} digits, expected {n_senders}")
    elif mode == "exhaustive":
        if n_senders > 3:
            raise ValueError("exhaustive enumeration is limited to 3 senders")
        outcomes = _all_outcomes(n_senders)
    elif mode == "sampled":
        outcomes = _sampled_outcomes(rows, n_senders, np.random.default_rng(seed), trials)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'exhaustive' or 'sampled'")

    composed = _composed_phase(phases)
    states, steps = _collapse_branches(rows, outcomes)
    found = _search_corrections(states, compressed_target(x, composed).amps)
    finals = _expand_parity(_apply_corrections(states, found))
    fidelities = np.abs(finals.conj() @ target_state(x, composed).amps) ** 2
    return Branches(labels, outcomes, steps, [_TRIPLES[t] for t in found.tolist()], finals, fidelities)


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
