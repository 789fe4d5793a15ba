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
normalize(conj(A[k]) * conj(B_1[k][j_1]) * ...). Forced and enumerated
branches are computed from that form by `_collapse_branches`; the sampler
computes the same form, bit for bit, as it draws, and returns it.
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
# Exhaustive runs and correction tables enumerate all 8**N branches up to this many senders.
MAX_ENUMERATED_SENDERS = 3
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

# Rows per correction-search chunk: keeps the (chunk, 64) complex overlap
# block at 64 KiB however many branches a run has. One unchunked product
# over 512 three-sender branches added about 1 MiB to the process's RSS.
_SEARCH_CHUNK = 64

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


def compressed_target(x: AmplitudeProfile, phases: PhaseProfile | PhaseShares) -> StateVector:
    """Three-qubit form of the target, one amplitude per index 0..7; shares compose first."""
    if isinstance(phases, PhaseShares):
        phases = bases.compose_phases(phases)
    return StateVector(x.x * np.exp(1j * phases.delta))


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
    PhaseProfile is the one row of the one phase sender of a two-sender run,
    and PhaseShares give phase sender l its share row l; every phase
    sender's bases come from one stacked build.
    """
    if not 2 <= n_senders <= MAX_SENDERS:
        raise ValueError(f"n_senders must be in 2..{MAX_SENDERS}, got {n_senders}")
    if isinstance(phases, PhaseShares):
        rows, labels = phases.shares, [bases.share_labels(l) for l in range(1, phases.n_senders)]
    else:
        rows, labels = [phases.delta], [bases.PHASE_LABELS]
    phase_sets = bases.phase_bases_from_rows(rows, labels)
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


def _forced_outcome(alice_k: int, bob_j, n_senders: int) -> np.ndarray:
    """The outcome row (alice_k, *bob_j) as a (1, n_senders) array, checked:
    a negative digit would index the bases from the end and run a branch."""
    outcome = np.array([[alice_k, *bob_j]], dtype=np.intp)
    if outcome.shape[1] != n_senders:
        raise ValueError(f"forced outcome lists {outcome.shape[1]} digits, expected {n_senders}")
    if np.any((outcome < 0) | (outcome > 7)):
        raise ValueError("outcome digits must be in 0..7")
    return outcome


def _collapse_branch(
    x: AmplitudeProfile, phases: PhaseProfile | PhaseShares, alice_k: int, bob_j
) -> tuple[StateVector, float, tuple[MeasurementRecord, ...]]:
    """Force the branch (alice_k, bob_j) and return the receiver's collapsed
    3-qubit state, the joint branch probability, and the step records."""
    rows, labels = _basis_rows(measurement_bases(x, phases, 1 + len(bob_j)))
    digits = _forced_outcome(alice_k, bob_j, 1 + len(bob_j))
    states, steps = _collapse_branches(rows, digits)
    return StateVector(states[0]), float(np.prod(steps[0])), _records(labels, digits[0].tolist(), steps[0].tolist())


def _search_corrections(states: np.ndarray, target3: np.ndarray) -> np.ndarray:
    """For each row of `states`, the index into _TRIPLES of the first triple in
    search order whose corrected state reaches fidelity 1 - FIDELITY_TOL
    with `target3`.

    Column t of `weights` is triple t applied to the conjugated target, so
    (states @ weights)[b, t] is the overlap of the target with row b
    corrected by triple t; a chunk of rows is searched in one product.
    """
    weights = np.empty((8, len(_TRIPLES)), dtype=complex)
    weights[_TRIPLE_PERM, np.arange(len(_TRIPLES))[:, None]] = _TRIPLE_SIGN * target3.conj()
    found = np.empty(len(states), dtype=np.intp)
    for start in range(0, len(states), _SEARCH_CHUNK):
        hit = np.abs(states[start : start + _SEARCH_CHUNK] @ weights) ** 2 >= 1.0 - FIDELITY_TOL
        if not np.all(hit.any(axis=1)):
            raise NoCorrectionFound("no Pauli triple reaches the fidelity threshold")
        found[start : start + _SEARCH_CHUNK] = hit.argmax(axis=1)
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
    return _search_correction(collapsed, compressed_target(x, phases))


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


def build_correction_table(n_senders: int) -> CorrectionTable:
    """Derive (and independently verify) corrections for all 8**n_senders
    outcomes, up to MAX_ENUMERATED_SENDERS senders. Derivation and verification
    use two independently seeded generic profiles, so a table entry only
    survives if it is profile-independent."""
    if n_senders > MAX_ENUMERATED_SENDERS:
        raise ValueError(f"full enumeration is limited to {MAX_ENUMERATED_SENDERS} senders")
    grid = _all_outcomes(n_senders)
    keys = list(map(tuple, grid.tolist()))

    derive_x, derive_phases = bases.random_inputs(n_senders, _TABLE_SEED)
    derived, _ = _collapse_branches(_basis_rows(measurement_bases(derive_x, derive_phases, n_senders))[0], grid)
    found = _search_corrections(derived, compressed_target(derive_x, derive_phases).amps)

    check_x, check_phases = bases.random_inputs(n_senders, _TABLE_SEED + 1)
    checked, _ = _collapse_branches(_basis_rows(measurement_bases(check_x, check_phases, n_senders))[0], grid)
    check_target = compressed_target(check_x, check_phases)
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


def _sampled_outcomes(
    rows: np.ndarray, n_senders: int, rng: np.random.Generator, trials: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw `trials` branches from the true joint outcome distribution, and
    return their outcomes with the states and steps that
    `_collapse_branches(rows, outcomes)` gives, bit for bit.

    Each trial draws the magnitude sender's k, then each phase sender's j in
    turn, from that party's probabilities given the outcomes drawn before it:
    the row norms of `rows[p, k] * state`, where `state` is the receiver's
    8-vector after the draws so far. Before the magnitude sender measures,
    every trial's state is the channel's diagonal, and her rows are the same
    for every k, so her eight branches, probabilities and CDF are computed
    once per call from `rows[0, 0]`.

    Trials are drawn in chunks of _SAMPLE_CHUNK, each phase sender over a
    whole chunk at once, into buffers allocated once per call. Every draw is
    `Generator.choice(8, p=q)` unrolled: one uniform u per (trial, party),
    taken in row-major order as the trial-by-trial loop took them, and the
    index is the number of entries of cumsum(q) / cumsum(q)[-1] that are
    <= u. So the seed-to-outcome map is that of one `rng.choice` per trial
    and party. The elementwise operations are those of `_collapse_branches`,
    in its order, so the drawn branch's probability and normalized state are
    its step and state.
    """
    outcomes = np.empty((trials, n_senders), dtype=np.intp)
    states = np.empty((trials, 8), dtype=complex)
    steps = np.empty((trials, n_senders))

    # The magnitude sender's eight branches, their probabilities and CDF, then
    # the branches normalized: the states she leaves for each k.
    first = rows[0, 0] * np.full(8, _CHANNEL_AMPLITUDE, dtype=complex)
    first_probs = np.sum(np.abs(first) ** 2, axis=-1)
    first_cdf = np.cumsum(first_probs / first_probs.sum(), axis=0)
    first_cdf /= first_cdf[-1:]
    if not np.all(np.isfinite(first_cdf)):
        raise ValueError("probabilities contain NaN")
    first /= np.sqrt(first_probs)[:, None]

    size = min(_SAMPLE_CHUNK, trials)
    branch_buf = np.empty((size, 8, 8), dtype=complex)
    magnitude_buf = np.empty((size, 8, 8))
    probs_buf, quotient_buf, cdf_buf = np.empty((3, size, 8))
    total_buf = np.empty((size, 1))
    below_buf = np.empty((size, 8), dtype=bool)
    for start in range(0, trials, _SAMPLE_CHUNK):
        u = rng.random((min(_SAMPLE_CHUNK, trials - start), n_senders))
        n = len(u)
        drawn, state, step = outcomes[start : start + n], states[start : start + n], steps[start : start + n]
        chunk = np.arange(n)
        branches, magnitudes, probs = branch_buf[:n], magnitude_buf[:n], probs_buf[:n]
        quotient, cdf, total, below = quotient_buf[:n], cdf_buf[:n], total_buf[:n], below_buf[:n]
        # Digits are counts of CDF entries <= u < 1 = cdf[-1], so 0..7: "clip"
        # never clips, and unlike "raise" it writes into `out` unbuffered.
        k = np.sum(np.less_equal(first_cdf, u[:, 0, None], out=below), axis=1, out=drawn[:, 0])
        step[:, 0] = first_probs[k]
        np.take(first, k, axis=0, out=state, mode="clip")
        for p in range(1, n_senders):
            np.take(rows[p], k, axis=0, out=branches, mode="clip")
            branches *= state[:, None, :]
            np.square(np.abs(branches, out=magnitudes), out=magnitudes)
            np.sum(magnitudes, axis=-1, out=probs)
            np.divide(probs, np.sum(probs, axis=1, keepdims=True, out=total), out=quotient)
            np.cumsum(quotient, axis=1, out=cdf)
            cdf /= cdf[:, -1:]
            if not np.all(np.isfinite(cdf)):
                raise ValueError("probabilities contain NaN")
            j = np.sum(np.less_equal(cdf, u[:, p, None], out=below), axis=1, out=drawn[:, p])
            step[:, p] = probs[chunk, j]
            np.divide(branches[chunk, j], np.sqrt(step[:, p])[:, None], out=state)
    return outcomes, states, steps


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

    Exhaustive mode computes all 8**n_senders branches (N <= MAX_ENUMERATED_SENDERS)
    in outcome-lexicographic order; sampled mode draws `trials` branches
    from the true distribution; `force` runs the one branch it names.
    """
    n_senders = len(sets)
    rows, labels = _basis_rows(sets)
    if force is None and mode == "sampled":
        outcomes, states, steps = _sampled_outcomes(rows, n_senders, np.random.default_rng(seed), trials)
    else:
        if force is not None:
            outcomes = _forced_outcome(force[0], force[1], n_senders)
        elif mode == "exhaustive":
            if n_senders > MAX_ENUMERATED_SENDERS:
                raise ValueError(f"exhaustive enumeration is limited to {MAX_ENUMERATED_SENDERS} senders")
            outcomes = _all_outcomes(n_senders)
        else:
            raise ValueError(f"unknown mode {mode!r}; expected 'exhaustive' or 'sampled'")
        states, steps = _collapse_branches(rows, outcomes)

    target3 = compressed_target(x, phases).amps
    found = _search_corrections(states, target3)
    finals = _expand_parity(_apply_corrections(states, found))
    fidelities = np.abs(finals.conj() @ _expand_parity(target3[None])[0]) ** 2
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
