"""The reduced GHZ-diagonal engine against the dense statevector oracle.

Every run and table walks one representative branch per announced k from
the channel's 8-term diagonal (`_class_grid`): its step table holds every
branch's step probabilities, and its final states, signed by the Walsh
characters of each branch's phase digits, every branch's state up to the sign
of zero. Every mode (exhaustive, sampled, forced) and every table correct the
64 class states (k, z), z the XOR of the digits' Walsh indices, and gather
them back (`_corrections`). The runners correct and expand the receiver's
8-vectors batched, with the Pauli frame Z^z X^k, which must pick the search's
triple on every profile and never search; a layout the frame misses, or whose
phase rows are not their row 0 times the paper's Walsh signs, is an oracle
failure.
`_collapse_branches`, which gathers one row per branch, is the
reference that the grid and the classes equal in every mode, and
no run calls it. `_dense_branch` measures the full register with the dense engine, and
`_TRIPLE_MATRIX`, Kronecker products of 2x2 Paulis, and `parity_expand`
are the dense correction and expansion. Both paths renormalize after every
measurement, so states and step probabilities agree to rounding, entrywise
and without any global phase alignment.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi_jrsp import bases, protocol
from chi_jrsp.bases import (
    SIGN_PATTERN,
    AmplitudeProfile,
    PhaseProfile,
    PhaseShares,
    amplitude_basis_matrix,
    random_amplitude_profile,
    random_inputs,
    random_phase_profile,
    random_phase_shares,
)
from chi_jrsp.harness import EXIT_ORACLE_ERROR, EXIT_PASS, main
from chi_jrsp.protocol import (
    _TRIPLES,
    FIDELITY_TOL,
    MAX_SENDERS,
    NoCorrectionFound,
    _all_outcomes,
    _apply_correction,
    _apply_corrections,
    _collapse_branches,
    _dense_branch,
    _expand_parity,
    _sampled_outcomes,
    _search_corrections,
    build_correction_table,
    compressed_target,
    derive_correction,
    measurement_bases,
    parity_expand,
    run_branches,
    run_n_sender,
)
from chi_jrsp.qstate import StateVector, fidelity_up_to_phase

ENGINE_TOL = 1e-15

PAULI = {"I": np.eye(2, dtype=complex), "X": np.array([[0, 1], [1, 0]], dtype=complex),
         "Z": np.array([[1, 0], [0, -1]], dtype=complex)}
PAULI["ZX"] = PAULI["Z"] @ PAULI["X"]
# The 8x8 matrix of each triple, in _TRIPLES order, first receiver qubit most significant.
_TRIPLE_MATRIX = np.array([np.kron(np.kron(PAULI[a], PAULI[b]), PAULI[c]) for a, b, c in _TRIPLES])

MAGNITUDES = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
PHASES = st.one_of(st.floats(-7.0, 7.0), st.floats(1e6 - 10.0, 1e6 + 10.0), st.floats(-1e6 - 10.0, -1e6 + 10.0))


def dense_search(collapsed: StateVector, target3: StateVector):
    """First triple in search order that reaches the threshold, as 8x8 matrices."""
    for triple, matrix in zip(_TRIPLES, _TRIPLE_MATRIX):
        if fidelity_up_to_phase(StateVector(matrix @ collapsed.amps), target3) >= 1.0 - FIDELITY_TOL:
            return triple
    return None


def sender_rows(x, phases, n_senders):
    return measurement_bases(x, phases, n_senders).vectors.conj()


def walked(rows):
    """The reference's states and steps of every branch of `rows`, in lexicographic order."""
    return _collapse_branches(rows, _all_outcomes(rows.shape[-4]))


def assert_matches_oracle(x, phases, outcomes):
    rows = sender_rows(x, phases, outcomes.shape[1])
    states, steps = _collapse_branches(rows, outcomes)
    target3 = compressed_target(x, phases)
    found = _search_corrections(states, target3.amps)
    for outcome, state, step, t in zip(outcomes, states, steps, found):
        dense, dense_steps = _dense_branch(x, phases, outcome)
        assert np.max(np.abs(state - dense.amps)) <= ENGINE_TOL
        assert np.max(np.abs(step - dense_steps)) <= ENGINE_TOL
        assert _TRIPLES[t] == dense_search(dense, target3)


@st.composite
def profiles(draw, n_senders):
    magnitudes = draw(st.lists(MAGNITUDES, min_size=8, max_size=8).filter(any))
    x = AmplitudeProfile(np.array(magnitudes) / np.linalg.norm(magnitudes))
    rows = [[0.0, *draw(st.lists(PHASES, min_size=7, max_size=7))] for _ in range(n_senders - 1)]
    phases = PhaseProfile(rows[0]) if n_senders == 2 and draw(st.booleans()) else PhaseShares(rows)
    return x, phases


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_random_branches_match_dense_oracle(n_senders, data):
    x, phases = data.draw(profiles(n_senders))
    digits = st.lists(st.integers(0, 7), min_size=n_senders, max_size=n_senders)
    outcomes = np.array(data.draw(st.lists(digits, min_size=1, max_size=2)))
    assert_matches_oracle(x, phases, outcomes)


@pytest.mark.parametrize("n_senders", [2, 3])
def test_every_branch_matches_dense_oracle(n_senders):
    rng = np.random.default_rng(40 + n_senders)
    x = random_amplitude_profile(rng)
    phases = random_phase_profile(rng) if n_senders == 2 else random_phase_shares(rng, n_senders)
    assert_matches_oracle(x, phases, np.array(list(itertools.product(range(8), repeat=n_senders))))


DEGENERATE_MAGNITUDES = {
    "e0": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    "two": [0.6, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    "four-equal": [0.5, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0, 0.5],
}


@pytest.mark.parametrize("magnitudes", DEGENERATE_MAGNITUDES.values(), ids=DEGENERATE_MAGNITUDES.keys())
def test_degenerate_two_sender_branches_match_dense_search(magnitudes):
    # Zero magnitudes let several triples reach the threshold, so only the
    # search order decides the reported one.
    x = AmplitudeProfile(magnitudes)
    phases = random_phase_profile(np.random.default_rng(46))
    outcomes = _all_outcomes(2)
    assert_matches_oracle(x, phases, outcomes)
    states, _ = _collapse_branches(sender_rows(x, phases, 2), outcomes)
    target3 = compressed_target(x, phases).amps
    hits = np.abs(np.einsum("tij,bj,i->bt", _TRIPLE_MATRIX, states, target3.conj())) ** 2 >= 1.0 - FIDELITY_TOL
    assert np.all(hits.sum(axis=1) > 1)


def three_sender_search(seed):
    x, phases = random_inputs(3, seed)
    states, _ = _collapse_branches(sender_rows(x, phases, 3), _all_outcomes(3))
    return states, compressed_target(x, phases).amps


@pytest.mark.parametrize("rows", [64, 7])
def test_unmatched_row_in_last_short_chunk_raises(rows):
    # The search is one product over the whole batch; an unmatched final row
    # must still raise whatever the batch length.
    states, target3 = three_sender_search(6)
    states = states[:rows].copy()
    _search_corrections(states, target3)
    states[-1] = np.roll(states[-1], 1)
    with pytest.raises(NoCorrectionFound):
        _search_corrections(states, target3)


def test_batched_correction_and_expansion_match_dense_matrices():
    rng = np.random.default_rng(3)
    amps = rng.standard_normal((len(_TRIPLES), 8)) + 1j * rng.standard_normal((len(_TRIPLES), 8))
    states = amps / np.linalg.norm(amps, axis=1)[:, None]
    corrected = _apply_corrections(states, np.arange(len(_TRIPLES)))
    expanded = _expand_parity(corrected)
    for state, triple, matrix, row, row16 in zip(states, _TRIPLES, _TRIPLE_MATRIX, corrected, expanded):
        assert np.array_equal(row, matrix @ state)
        assert np.array_equal(row, _apply_correction(StateVector(state), triple).amps)
        assert np.array_equal(row16, parity_expand(StateVector(row)).amps)


def test_product_of_two_triples_is_their_xor_up_to_sign():
    # The frame's tie rule and _SPREAD compose triples by XOR of their indices.
    index = np.arange(len(_TRIPLES))
    products = np.einsum("sij,tjk->stik", _TRIPLE_MATRIX, _TRIPLE_MATRIX)
    xor = _TRIPLE_MATRIX[index[:, None] ^ index]
    assert ((products == xor).all(axis=(2, 3)) | (products == -xor).all(axis=(2, 3))).all()


def replaying_sampler(rows, n_senders, rng, trials):
    """Reference sampler: each party's conditional probabilities come from
    re-running `_collapse_branches` from the channel on 8 copies of the drawn
    prefix, one per candidate digit."""
    outcomes = np.zeros((trials, n_senders), dtype=np.intp)
    for row in outcomes:
        for p in range(n_senders):
            candidates = np.repeat(row[None, : p + 1], 8, axis=0)
            candidates[:, p] = np.arange(8)
            probs = _collapse_branches(rows, candidates)[1][:, p]
            row[p] = rng.choice(8, p=probs / probs.sum())
    return outcomes


class BoundaryRng:
    """Stands in for the generator with uniforms placed on CDF entries.

    `choice(8, p=q)` does what `Generator.choice` does with one uniform u:
    it returns the number of entries of cumsum(q) / cumsum(q)[-1] that are
    <= u. Here u is not drawn: it is CDF entry c, or the double just below
    it, cycling over c and the two placements. Driven by the reference
    sampler, it records the uniforms of the reference path; `random(shape)`
    then serves those uniforms, in order, to the sampler under test. A draw
    sits exactly on a CDF step, so a probability vector that differs from
    the reference's in the last ulp moves that step past u or back, and
    flips the draw.
    """

    def __init__(self):
        self.uniforms = []
        self.served = 0

    def choice(self, a, p):
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        n = len(self.uniforms)
        u = cdf[n % 7] if n // 7 % 2 else np.nextafter(cdf[n % 7], 0.0)
        self.uniforms.append(u)
        return np.searchsorted(cdf, u, side="right")

    def random(self, shape):
        count = int(np.prod(shape))
        u = np.array(self.uniforms[self.served : self.served + count]).reshape(shape)
        self.served += count
        return u


def reference_table(rows):
    """The step table from `_collapse_branches`: [p, k, j] is party p's step for digit j after k and zero
    digits between (party 0's, whose digit is k, the root's for digit j on every k). On rows whose middle
    parties' rows are their row 0 up to signs, every branch of k has these steps, the last party's rows
    arbitrary too: a sign changes no bit of |.|^2."""
    n = rows.shape[-4]
    table = np.empty((n, 8, 8))
    for p in range(n):
        outcomes = np.zeros((64, n), dtype=np.intp)
        outcomes[:, 0], outcomes[:, p] = np.arange(64) // 8, np.arange(64) % 8
        table[p] = _collapse_branches(rows, outcomes)[1][:, p].reshape(8, 8)
    return table


def assert_sampler_matches_reference(rows, table, seed, trials):
    """The sampler, drawing from `table`, draws what the replaying reference draws on `rows`."""
    n_senders = rows.shape[-4]
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = _sampled_outcomes(table, rng, trials)
    assert np.array_equal(drawn, replaying_sampler(rows, n_senders, reference_rng, trials))
    assert rng.bit_generator.state == reference_rng.bit_generator.state

    boundary = BoundaryRng()
    expected = replaying_sampler(rows, n_senders, boundary, trials)
    assert np.array_equal(_sampled_outcomes(table, boundary, trials), expected)
    assert boundary.served == trials * n_senders


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_sampler_matches_replaying_reference(n_senders):
    for seed in range(25):
        x, phases = random_inputs(n_senders, seed)
        rows = sender_rows(x, phases, n_senders)
        assert_sampler_matches_reference(rows, protocol._class_grid(rows)[0], seed, trials=20)


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_sampler_matches_replaying_reference_on_random_profiles(n_senders, data, seed):
    x, phases = data.draw(profiles(n_senders))
    rows = sender_rows(x, phases, n_senders)
    assert_sampler_matches_reference(rows, protocol._class_grid(rows)[0], seed, trials=10)


def arbitrary_rows(gen, n_senders):
    return gen.standard_normal((n_senders, 8, 8, 8)) + 1j * gen.standard_normal((n_senders, 8, 8, 8))


def walsh_signed(rows):
    """Each party's rows for k as its row 0 times the paper's Walsh signs, the one form the grid takes."""
    return bases._SIGNS * rows[..., :1, :]


def skewed_rows(gen, n_senders):
    """Arbitrary rows for the magnitude sender and the last party, whose steps
    `reference_table` reads as given; each middle party's rows for k are one
    arbitrary complex row times the Walsh signs, the form that the sign
    pattern gives. Then the same rows with the magnitude sender's bases all
    equal to her basis 0, the form that `measurement_bases` gives."""
    rows = arbitrary_rows(gen, n_senders)
    rows[1:-1] = walsh_signed(rows[1:-1])
    same = rows.copy()
    same[0] = same[0, 0]
    return rows, same


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_sampler_matches_replaying_reference_on_skewed_rows(n_senders):
    # Orthonormal bases make every conditional probability 1/8, so the draws
    # barely depend on the walk; arbitrary rows at the magnitude sender and
    # the last party make their steps count, and the middle parties' rows
    # differ from one k to the next. With
    # the magnitude sender's rows depending on k, her branch d must use row d
    # of basis d, as the reference does. The run's grid refuses an arbitrary
    # last party, so the sampler draws from the reference's table here.
    gen = np.random.default_rng(n_senders)
    for seed in range(20):
        for rows in skewed_rows(gen, n_senders):
            assert_sampler_matches_reference(rows, reference_table(rows), seed, trials=20)


def test_sampler_walks_each_trial_once(monkeypatch):
    # The sampler replays no prefix, and a sampled run takes its steps from
    # the grid's table and its states from their classes instead of
    # collapsing the drawn branches. A forced five-sender run takes the same
    # path.
    def refuse(*args):
        raise AssertionError("a sampled or forced run called _collapse_branches")

    x, phases = random_inputs(5, 0)
    sets = measurement_bases(x, phases, 5)
    table = protocol._class_grid(sets.vectors.conj())[0]
    monkeypatch.setattr(protocol, "_collapse_branches", refuse)
    assert _sampled_outcomes(table, np.random.default_rng(0), 10).shape == (10, 5)
    assert run_branches(x, phases, sets, "sampled", 0, 300, None).outcomes.shape == (300, 5)
    assert run_branches(x, phases, sets, "sampled", 0, 300, (7, (7, 7, 7, 7))).outcomes.tolist() == [[7] * 5]


@pytest.mark.parametrize("force", [None, (1, (2, 3))], ids=["unforced", "forced"])
def test_run_branches_rejects_an_unknown_mode(force):
    # A forced outcome overrides the trial count and either known mode, but
    # an unknown mode is an error with or without one.
    x, shares = random_inputs(3, 0)
    sets = measurement_bases(x, shares, 3)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        run_branches(x, shares, sets, "bogus", 0, 1, force)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        run_n_sender(3, x, shares, mode="bogus", force=force)


def test_corrections_are_the_triple_column():
    x, shares = random_inputs(3, 4)
    run = run_branches(x, shares, measurement_bases(x, shares, 3), "exhaustive", None, 1, None)
    assert run.triples.shape == (512,) and run.triples.dtype.kind == "i"
    assert run.corrections == [_TRIPLES[t] for t in run.triples.tolist()]
    table = build_correction_table(2)
    assert table.corrections == [_TRIPLES[t] for t in table.triples.tolist()]


@pytest.mark.parametrize("n_senders", [2, 5])
def test_sampler_draws_do_not_depend_on_chunk_size(n_senders, monkeypatch):
    # 20 trials in chunks of 7 are three chunks, the last one short.
    default = protocol._SAMPLE_CHUNK
    for rows in skewed_rows(np.random.default_rng(10 + n_senders), n_senders):
        table = reference_table(rows)
        monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", default)
        whole = _sampled_outcomes(table, np.random.default_rng(3), 20)
        monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", 7)
        assert np.array_equal(_sampled_outcomes(table, np.random.default_rng(3), 20), whole)
        assert_sampler_matches_reference(rows, table, seed=3, trials=20)


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_drawn_branches_are_the_reference(rows, seed, trials):
    """The sampler's draws on `rows` take the reference's steps bit for bit, and their class states are the
    reference's states up to the sign of zero: the grid's table gathered at each drawn outcome, and its k's
    final state times the Walsh signs of its phase digits, which are the character of its z XOR s(k)."""
    table, finals = protocol._class_grid(rows)
    drawn = _sampled_outcomes(table, np.random.default_rng(seed), trials)
    steps, z = protocol._drawn(table, drawn)
    signs = np.prod(bases._SIGNS[drawn[:, 1:]], axis=1)
    assert np.array_equal(bases.WALSH_CHARACTERS[z ^ bases.WALSH_INDEX[drawn[:, 0]]], signs)
    states = np.where(signs < 0, -finals[drawn[:, 0]], finals[drawn[:, 0]])
    expected_states, expected_steps = _collapse_branches(rows, drawn)
    assert_bits_equal(steps, expected_steps)
    assert_bits_equal_up_to_zero_sign(states, expected_states)


@pytest.mark.parametrize("chunk", [protocol._SAMPLE_CHUNK, 7])
@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_sampled_states_and_steps_equal_collapse(n_senders, chunk, monkeypatch):
    # A sampled run's steps, triples and fidelities are the reference's of
    # its drawn branches, bit for bit, and its corrected states up to the
    # sign of zero, on real profiles; on both kinds of skewed rows above,
    # with each phase party's rows its row 0 times the Walsh signs (the grid
    # refuses any other), the drawn branches' steps and class states are the
    # reference's. 300 trials end in a short chunk at either chunk size:
    # 256 + 44, and 42 * 7 + 6.
    monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", chunk)
    gen = np.random.default_rng(n_senders)
    for seed in range(8):
        x, phases = random_inputs(n_senders, seed)
        sets = measurement_bases(x, phases, n_senders)
        run = run_branches(x, phases, sets, "sampled", seed, 300, None)
        expected = per_branch_reference(sets.vectors.conj(), run.outcomes, compressed_target(x, phases).amps)
        assert_run_is(run, expected, np.arange(300))
        for rows in skewed_rows(gen, n_senders):
            rows[-1] = walsh_signed(rows[-1])
            assert_drawn_branches_are_the_reference(rows, seed, trials=300)


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_middle_rows_off_their_signs_raise(n_senders):
    # The step table holds every branch's steps, and the classes its states,
    # only if each phase party's row j for k is its row 0 times the Walsh
    # signs of row j. Arbitrary rows, in both of the old skewed forms, are an
    # oracle failure in every mode, a forced run and `_collapse_branch` too,
    # which names the first such party and k; so is one entry of a paper
    # basis turned by a unit phase, which keeps every magnitude, and a swap
    # of two rows of one paper basis, which keeps them row 0 up to signs, at
    # the last phase sender or, from three senders on, a middle one.
    x, phases = random_inputs(n_senders, 0)
    sets = measurement_bases(x, phases, n_senders)
    arbitrary = arbitrary_rows(np.random.default_rng(30 + n_senders), n_senders)
    same = arbitrary.copy()
    same[0] = same[0, 0]
    cases = [(arbitrary, 1, 0), (same, 1, 0)]
    for party in {n_senders - 1, max(n_senders - 2, 1)}:
        turned = sets.vectors.copy()
        turned[party, 3, 5, 2] *= 1j
        swapped = sets.vectors.copy()
        swapped[party, 6, [1, 2]] = swapped[party, 6, [2, 1]]
        cases += [(turned.conj(), party, 3), (swapped.conj(), party, 6)]
    force = (3, (5,) * (n_senders - 1))
    for rows, party, k in cases:
        message = f"phase sender {party}'s basis rows for k={k} are not its row 0 times the Walsh signs"
        broken = protocol.MeasurementBases(rows.conj(), sets.labels, sets.deviations)
        for mode, trials, forced in (("exhaustive", 1, None), ("sampled", 20, None), ("sampled", 1, force)):
            with pytest.raises(NoCorrectionFound) as raised:
                run_branches(x, phases, broken, mode, 0, trials, forced)
            assert str(raised.value) == message
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "measurement_bases", lambda *args: broken)
        with pytest.raises(NoCorrectionFound, match="row 0 times the Walsh signs"):
            protocol._collapse_branch(x, phases, *force)


def flip_column(pattern):
    pattern[:, 5] *= -1


def swap_rows(pattern):
    pattern[[1, 2]] = pattern[[2, 1]]


def tied_profiles(n_senders):
    """A tied magnitude profile under zero phases."""
    return st.sampled_from(list(TIED_MAGNITUDES.values())).map(
        lambda m: (AmplitudeProfile(m), PhaseShares(np.zeros((n_senders - 1, 8)))))


@pytest.mark.parametrize("n_senders", [2, 3, 4])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_step_table_is_every_branch_step(n_senders, data):
    # Entry [p, k, j] of the grid's table is, bit for bit, the reference's step
    # at party p of every branch with announced k and digit j (party 0's
    # digit is k, on every row of hers), on random and tied profiles, under
    # the paper's sign pattern and its column-negation mutant. The grid
    # refuses the row-swap mutant.
    x, phases = data.draw(st.one_of(profiles(n_senders), tied_profiles(n_senders)))
    change = data.draw(st.sampled_from([None, flip_column, swap_rows]))
    with pytest.MonkeyPatch.context() as patch:
        if change is not None:
            pattern = SIGN_PATTERN.copy()
            change(pattern)
            patch.setattr(bases, "SIGN_PATTERN", pattern)
        rows = sender_rows(x, phases, n_senders)
    if change is swap_rows:
        with pytest.raises(NoCorrectionFound, match="row 0 times the Walsh signs"):
            protocol._class_grid(rows)
        return
    table = protocol._class_grid(rows)[0]
    _, steps = walked(rows)
    outcomes = _all_outcomes(n_senders)
    for c in range(8):
        assert_bits_equal(table[0, c, outcomes[:, 0]], steps[:, 0])
    for p in range(1, n_senders):
        assert_bits_equal(table[p, outcomes[:, 0], outcomes[:, p]], steps[:, p])


def per_branch_reference(rows, outcomes, target3):
    """Each branch of `outcomes` by the per-branch reference: `_collapse_branches`' steps and states, the
    Pauli frame Z^z X^k of its digits, z = s(k) ^ s(j_1) ^ ... for s = bases.WALSH_INDEX, with the search's tie
    rule (the least of the frame XOR each triple that fixes the target), `_apply_corrections`' corrected states
    and their fidelities, in one product over the batch (numpy takes another product path for one row, so
    give it two or more), and the mask of branches whose frame misses. With no miss, the frame's triples are
    the search's."""
    states, steps = _collapse_branches(rows, outcomes)
    k, z = outcomes[:, 0], np.bitwise_xor.reduce(bases.WALSH_INDEX[outcomes], axis=1)
    frame = sum(((k >> b & 1) + 2 * (z >> b & 1)) * 4**b for b in range(3))  # receiver qubit 0 is bit 2
    fixes = np.abs(np.einsum("i,tij,j->t", target3.conj(), _TRIPLE_MATRIX, target3)) ** 2 >= 1.0 - FIDELITY_TOL
    found = (frame[:, None] ^ fixes.nonzero()[0]).min(axis=1)
    corrected = _apply_corrections(states, found)
    fidelities = np.abs(corrected @ target3.conj()) ** 2
    missed = ~(fidelities >= 1.0 - FIDELITY_TOL)
    if not missed.any():
        assert np.array_equal(found, _search_corrections(states, target3))
    return steps, found, corrected, fidelities, missed


def assert_run_is(run, expected, b):
    """`run`'s branches are rows `b` of a `per_branch_reference`: steps, triples and fidelities bit for bit,
    corrected states up to the sign of zero, as the branches of a class share one state."""
    steps, found, corrected, fidelities, _ = expected
    assert_bits_equal(run.steps, steps[b])
    assert np.array_equal(run.triples, found[b])
    assert_bits_equal_up_to_zero_sign(run.corrected, corrected[b])
    assert_bits_equal(run.fidelities, fidelities[b])


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_the_grid_is_the_per_branch_reference(n_senders, data):
    # Every mode takes one class path from the grid. On random profiles
    # (zero magnitudes among them) and tied ones, under the paper's sign
    # pattern and its column-negation mutant: an exhaustive run, sampled runs
    # at two chunk sizes and forced runs (the digit corners and one drawn
    # outcome) take the per-branch reference's steps, triples and fidelities
    # bit for bit and its corrected states up to the sign of zero, or raise
    # the reference's first miss among their branches, in their order. A
    # forced or sampled branch's fidelity has the bits of its exhaustive row.
    # Under the row-swap mutant every mode refuses the first phase sender's
    # rows for k = 0.
    x, phases = data.draw(st.one_of(profiles(n_senders), tied_profiles(n_senders)))
    change = data.draw(st.sampled_from([None, flip_column, swap_rows]))
    with pytest.MonkeyPatch.context() as patch:
        if change is not None:
            pattern = SIGN_PATTERN.copy()
            change(pattern)
            patch.setattr(bases, "SIGN_PATTERN", pattern)
        sets = measurement_bases(x, phases, n_senders)
    digits = st.lists(st.integers(0, 7), min_size=n_senders, max_size=n_senders)
    seed, forced = data.draw(st.integers(0, 2**32 - 1)), ([0] * n_senders, [7] * n_senders, data.draw(digits))
    if change is swap_rows:
        for mode, trials, force in (("exhaustive", 1, None), ("sampled", 300, None),
                                    *(("sampled", 1, (o[0], tuple(o[1:]))) for o in forced)):
            with pytest.raises(NoCorrectionFound) as raised:
                run_branches(x, phases, sets, mode, seed, trials, force)
            assert str(raised.value) == "phase sender 1's basis rows for k=0 are not its row 0 times the Walsh signs"
        return
    rows, target3, outcomes = sets.vectors.conj(), compressed_target(x, phases).amps, _all_outcomes(n_senders)
    assert_tree_equals_collapse(rows)
    expected = per_branch_reference(rows, outcomes, target3)
    _, found, _, fidelities, missed = expected
    drawn = _sampled_outcomes(protocol._class_grid(rows)[0], np.random.default_rng(seed), 300)
    cases = [("exhaustive", 1, None, protocol._SAMPLE_CHUNK, outcomes),
             *(("sampled", 300, None, chunk, drawn) for chunk in (protocol._SAMPLE_CHUNK, 7))]
    for o in forced:
        cases.append(("sampled", 1, (o[0], tuple(o[1:])), protocol._SAMPLE_CHUNK, np.array([o])))
    every = None
    for mode, trials, force, chunk, named in cases:
        b = np.ravel_multi_index(named.T, (8,) * n_senders)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "_SAMPLE_CHUNK", chunk)
            if missed[b].any():
                first = b[missed[b].argmax()]
                with pytest.raises(NoCorrectionFound) as raised:
                    run_branches(x, phases, sets, mode, seed, trials, force)
                assert str(raised.value) == (f"correction {_TRIPLES[found[first]]} for outcome"
                                             f" {tuple(outcomes[first].tolist())} misses the target"
                                             f" (fidelity {float(fidelities[first])!r})")
                continue
            run = run_branches(x, phases, sets, mode, seed, trials, force)
        assert np.array_equal(run.outcomes, named)
        assert_run_is(run, expected, b)
        every = run if mode == "exhaustive" else every
        if every is not None:
            assert_bits_equal(run.fidelities, every.fidelities[b])
    assert every is not None or missed.any()


def test_an_undrawn_zero_class_is_silent():
    # Row 3 of the magnitude sender's basis 3 is zero, so k = 3 has
    # probability 0 and its table rows, final state and class states are
    # 0/0. No trial draws it, so a sampled run neither warns nor raises, and
    # its drawn branches are the reference's.
    x, phases = random_inputs(3, 0)
    sets = measurement_bases(x, phases, 3)
    rows = sets.vectors.conj().copy()
    rows[0, 3, 3] = 0.0
    assert 3 not in _sampled_outcomes(protocol._class_grid(rows)[0], np.random.default_rng(0), 300)[:, 0]
    assert_drawn_branches_are_the_reference(rows, 0, 300)
    broken = protocol.MeasurementBases(rows.conj(), sets.labels, sets.deviations)
    run = run_branches(x, phases, broken, "sampled", 0, 300, None)
    assert_run_is(run, per_branch_reference(rows, run.outcomes, compressed_target(x, phases).amps), np.arange(300))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_sampler_rejects_non_finite_probabilities():
    # All-zero rows give 0/0 probabilities, which Generator.choice rejects.
    rows = np.zeros((3, 8, 8, 8), dtype=complex)
    with pytest.raises(ValueError):
        replaying_sampler(rows, 3, np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        _sampled_outcomes(protocol._class_grid(rows)[0], np.random.default_rng(0), 4)


# Signed zeros, subnormals, the largest finite double (whose products overflow),
# infinities of both signs and NaN.
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, np.inf, -np.inf, np.nan]


def assert_bits_equal_but_nan_payloads(got, expected):
    """Bit for bit, but a NaN may carry another of its row's NaN payloads:
    which of two NaN operands an add or a multiply keeps is the compiled
    loop's choice (numpy's own scalar adds keep either one), not an effect of
    the order of the operations."""
    got, expected = np.asarray(got), np.asarray(expected)
    nan = np.isnan(expected)
    assert got.shape == expected.shape and np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.uint64)[~nan], expected.view(np.uint64)[~nan])


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_probabilities_are_numpy_prod(n_senders, data):
    # The left-to-right column products of `Branches.probabilities` against
    # np.prod over each row: on a run's steps, and on drawn steps whose
    # products round, underflow, overflow or meet inf and NaN.
    x, phases = data.draw(profiles(n_senders))
    run = run_branches(x, phases, measurement_bases(x, phases, n_senders), "sampled", 0, 50, None)
    rows = data.draw(st.integers(1, 40))
    values = data.draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(FLOAT_EDGES), st.floats()),
                                min_size=rows * n_senders, max_size=rows * n_senders))
    drawn = protocol.Branches(run.labels, None, np.array(values).reshape(rows, n_senders), None, None, None)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for branches in (run, drawn):
            assert_bits_equal_but_nan_payloads(branches.probabilities, np.prod(branches.steps, axis=1))


def assert_bits_equal_up_to_zero_sign(a, b):
    """Bit for bit once -0.0 reads +0.0, in every real and imaginary part."""
    assert_bits_equal(a + 0.0, b + 0.0)


def grid_branches(rows):
    """Every branch's steps and state, in lexicographic order, read from `_class_grid`: the table's entry
    of each digit, and its k's final state negated where the Walsh signs of its phase digits multiply to -1."""
    n = rows.shape[-4]
    outcomes = _all_outcomes(n)
    table, finals = protocol._class_grid(rows)
    flips = np.prod(bases._SIGNS[outcomes[:, 1:]], axis=1) < 0
    states = np.where(flips, -finals[outcomes[:, 0]], finals[outcomes[:, 0]])
    return table[np.arange(n), outcomes[:, :1], outcomes], states


def assert_tree_equals_collapse(rows):
    """The grid's branches are the reference's: steps bit for bit, states up to the sign of zero."""
    steps, states = grid_branches(rows)
    expected_states, expected_steps = walked(rows)
    assert_bits_equal(steps, expected_steps)
    assert_bits_equal_up_to_zero_sign(states, expected_states)


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_tree_equals_collapse_on_seeded_profiles(n_senders):
    for seed in range(3):
        x, phases = random_inputs(n_senders, seed)
        assert_tree_equals_collapse(sender_rows(x, phases, n_senders))


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
@pytest.mark.parametrize("magnitudes", DEGENERATE_MAGNITUDES.values(), ids=DEGENERATE_MAGNITUDES.keys())
def test_tree_equals_collapse_on_degenerate_profiles(magnitudes, n_senders):
    rng = np.random.default_rng(46)
    phases = random_phase_profile(rng) if n_senders == 2 else random_phase_shares(rng, n_senders)
    assert_tree_equals_collapse(sender_rows(AmplitudeProfile(magnitudes), phases, n_senders))


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_tree_equals_collapse_on_unnormalized_rows(n_senders):
    # Arbitrary rows for the magnitude sender: a branch's k picks row k of her
    # basis k, so a grid that read another of her bases would show. Each phase
    # sender's rows for k are one arbitrary row times the Walsh signs, the
    # form that the grid needs; arbitrary rows there are refused by the grid,
    # so by every run and table.
    gen = np.random.default_rng(20 + n_senders)
    for _ in range(3):
        rows = arbitrary_rows(gen, n_senders)
        with pytest.raises(NoCorrectionFound, match="row 0 times the Walsh signs"):
            protocol._class_grid(rows)
        rows[1:] = walsh_signed(rows[1:])
        assert_tree_equals_collapse(rows)


def test_enumerations_walk_the_tree(monkeypatch):
    # Exhaustive runs, correction tables and forced branches never gather
    # rows per branch: `_collapse_branches` is the tests' reference alone.
    def refuse(*args):
        raise AssertionError("a run called _collapse_branches")

    x, phases = random_inputs(3, 0)
    sets = measurement_bases(x, phases, 3)
    rows = sets.vectors.conj()
    expected_state, expected_steps = _collapse_branches(rows, np.array([[1, 2, 3]]))
    expected_triple = derive_correction(1, (2, 3), x, phases)
    x4, phases4 = random_inputs(4, 0)
    sets4 = measurement_bases(x4, phases4, 4)
    monkeypatch.setattr(protocol, "_collapse_branches", refuse)
    assert run_branches(x, phases, sets, "exhaustive", None, 1, None).outcomes.shape == (512, 3)
    assert build_correction_table(3).outcomes.shape == (512, 3)
    assert run_branches(x4, phases4, sets4, "exhaustive", None, 1, None).outcomes.shape == (4096, 4)
    assert build_correction_table(4).outcomes.shape == (4096, 4)
    assert run_branches(x, phases, sets, "exhaustive", None, 1, (1, (2, 3))).outcomes.tolist() == [[1, 2, 3]]
    assert derive_correction(1, (2, 3), x, phases) == expected_triple
    state, _, records = protocol._collapse_branch(x, phases, 1, (2, 3))
    assert_bits_equal(state.amps, expected_state[0])
    assert [r.probability for r in records] == expected_steps[0].tolist()


# A generic profile other than the table's: its entries must not depend on the profile.
TABLE_SEED = 7043  # protocol._TABLE_PROFILE is the profile of this seed
OTHER_SEED = TABLE_SEED - 1


@pytest.mark.parametrize("n_senders", [2, 3, 4])
def test_the_table_holds_on_another_profile(n_senders):
    # The table corrects and checks one seeded profile; every entry is the
    # one-branch oracle's on that profile and on another generic one.
    table = build_correction_table(n_senders)
    for seed in (OTHER_SEED, TABLE_SEED):
        x, phases = random_inputs(n_senders, seed)
        derived = {o: derive_correction(o[0], o[1:], x, phases) for o in table.entries}
        assert derived == dict(table.entries), seed


@pytest.mark.parametrize("n_senders", [4, 5])
def test_large_tables_match_derive_correction(n_senders):
    # The enumerated table against the one-branch oracle on the table's
    # profile and another: the digit corners and 18 seeded outcomes.
    table = build_correction_table(n_senders)
    drawn = np.random.default_rng(n_senders).integers(0, 8, (18, n_senders))
    outcomes = [(0,) * n_senders, (7,) * n_senders, *map(tuple, drawn.tolist())]
    for seed in (OTHER_SEED, TABLE_SEED):
        x, phases = random_inputs(n_senders, seed)
        for o in outcomes:
            assert table.entries[o] == derive_correction(o[0], o[1:], x, phases), (seed, o)


def assert_rows_of(run, every, columns):
    """`run`'s branches are the rows of `every` for their outcomes, bit for
    bit in `columns`; returns those rows."""
    b = np.ravel_multi_index(run.outcomes.T, (8,) * run.outcomes.shape[1])
    assert np.array_equal(every.outcomes[b], run.outcomes)
    assert run.corrections == [every.corrections[i] for i in b]
    for column in columns:
        assert_bits_equal(getattr(run, column), getattr(every, column)[b])
    return b


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_run_branches_agree_across_modes(n_senders):
    # Every sampled or forced branch is, bit for bit, the exhaustive row of
    # its outcome, the one-row forced batch too.
    forced = [(0,) * n_senders, (7,) * n_senders, (1, 2, 3, 4, 5)[:n_senders], (6, 0, 5, 3, 1)[:n_senders]]
    for seed in range(3):
        x, phases = random_inputs(n_senders, seed)
        sets = measurement_bases(x, phases, n_senders)
        every = run_branches(x, phases, sets, "exhaustive", None, 1, None)
        sampled = run_branches(x, phases, sets, "sampled", seed, 300, None)
        assert_rows_of(sampled, every, ("steps", "corrected", "fidelities"))
        for o in forced:
            run = run_branches(x, phases, sets, "sampled", seed, 1, (o[0], o[1:]))
            assert_rows_of(run, every, ("steps", "corrected", "fidelities"))


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_fidelities_do_not_depend_on_the_batch(n_senders):
    # numpy takes another product path for a one-row matrix than for two or
    # more rows; `_corrections` corrects the 64 class states whatever the
    # branches it is given, so every chunk size, and the short tail of 100
    # rows in chunks of 3, 6, 7, 8 or 9, gives the bits of the whole run, one
    # branch (a forced run's batch) too.
    x, phases = random_inputs(n_senders, 0)
    run = run_branches(x, phases, measurement_bases(x, phases, n_senders), "exhaustive", None, 1, None)
    _, finals = protocol._class_grid(sender_rows(x, phases, n_senders))
    z = protocol._every_z(n_senders)
    rows = np.random.default_rng(n_senders).permutation(len(z))[:100]
    target3 = compressed_target(x, phases).amps
    for size in range(1, 10):
        for start in range(0, len(rows), size):
            b = rows[start : start + size]
            found, corrected, fidelities, row = protocol._corrections(run.outcomes[b], finals, z[b], target3)
            assert np.array_equal(found, run.triples[b])
            assert_bits_equal(corrected[row], run.corrected[b])
            assert_bits_equal(fidelities, run.fidelities[b])


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_table_and_verify_agree(n_senders):
    # `table` reports the corrections and fidelities of an exhaustive run on
    # its profile, bit for bit: both take them from the one 8-vector product.
    x, phases = random_inputs(n_senders, TABLE_SEED)
    run = run_branches(x, phases, measurement_bases(x, phases, n_senders), "exhaustive", None, 1, None)
    table = build_correction_table(n_senders)
    assert np.array_equal(run.outcomes, table.outcomes)
    assert np.array_equal(run.triples, table.triples)
    assert_bits_equal(run.fidelities, table.fidelities)


def walsh_character(s):
    """(-1)**popcount(s & m) for m = 0..7."""
    return np.array([(-1) ** bin(s & m).count("1") for m in range(8)])


def test_walsh_index_is_the_sign_pattern_rows():
    for j, s in enumerate(bases.WALSH_INDEX.tolist()):
        assert np.array_equal(SIGN_PATTERN[j], walsh_character(s))
    assert sorted(bases.WALSH_INDEX.tolist()) == list(range(8))


def test_walsh_index_is_the_amplitude_layout_rows():
    # At the uniform profile, row k, column m of the layout is
    # chi_{s(k)}(m) x[k ^ m] = chi_{s(k)}(m) / sqrt 8.
    layout = amplitude_basis_matrix(AmplitudeProfile(np.full(8, 8**-0.5)))
    for k, s in enumerate(bases.WALSH_INDEX.tolist()):
        assert np.array_equal(np.sign(layout[k]), walsh_character(s))


def assert_frame_is_the_search(x, phases, n_senders):
    """The exhaustive run's triples are the search's, and its fidelities those
    of the search's triples, bit for bit, with the search unreachable. Its
    corrected states are the search's up to the sign of zero: the branches of
    a class share one state, so a zero's sign is not the branch's."""
    sets = measurement_bases(x, phases, n_senders)
    states, _ = walked(sets.vectors.conj())
    target3 = compressed_target(x, phases).amps
    searched = _search_corrections(states, target3)

    def refuse(*args):
        raise AssertionError("a run searched for its corrections")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_search_corrections", refuse)
        run = run_branches(x, phases, sets, "exhaustive", None, 1, None)
    assert np.array_equal(run.triples, searched)
    corrected = _apply_corrections(states, searched)
    assert_bits_equal_up_to_zero_sign(run.corrected, corrected)
    assert_bits_equal(run.fidelities, np.abs(corrected @ target3.conj()) ** 2)


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_frame_is_the_search_on_random_profiles(n_senders, data):
    assert_frame_is_the_search(*data.draw(profiles(n_senders)), n_senders)


_R = 0.5**0.5
TIED_MAGNITUDES = {
    "e0": [1.0, 0, 0, 0, 0, 0, 0, 0],
    "e5": [0, 0, 0, 0, 0, 1.0, 0, 0],
    "e0+e1": [_R, _R, 0, 0, 0, 0, 0, 0],
    "e0+e7": [_R, 0, 0, 0, 0, 0, 0, _R],
    "e3+e6": [0, 0, 0, _R, 0, 0, _R, 0],
    "uniform": [8**-0.5] * 8,
    "half-uniform": [0.5] * 4 + [0.0] * 4,
}


@pytest.mark.parametrize("n_senders", [2, 3, 4])
@pytest.mark.parametrize("magnitudes", TIED_MAGNITUDES.values(), ids=TIED_MAGNITUDES.keys())
def test_frame_is_the_search_on_tied_profiles(magnitudes, n_senders):
    # Several triples tie on these profiles, so the search order decides;
    # the first phase row carries zero, pi or generic phases, the rest zero.
    x = AmplitudeProfile(magnitudes)
    generic = random_phase_profile(np.random.default_rng(n_senders)).delta
    for first in (np.zeros(8), np.r_[0.0, np.full(7, np.pi)], generic):
        rows = np.zeros((n_senders - 1, 8))
        rows[0] = first
        assert_frame_is_the_search(x, PhaseShares(rows), n_senders)
        if n_senders == 2:
            assert_frame_is_the_search(x, PhaseProfile(first), n_senders)


def refuse_search(*args):
    raise AssertionError("searched for a correction")


def assert_one_pass_decides_as_the_search(x, phases, n_senders):
    """`_corrections` corrects each class once with the frame and never
    searches. Its miss mask is the one that each branch's class frame gives
    the reference's states (`einsum` over the (8, B) columns). With no miss,
    its triples are the search's, its fidelities those of the search's
    triples bit for bit, and its corrected states theirs up to the sign of
    zero; a miss raises NoCorrectionFound, which names the first missed
    branch."""
    rows = sender_rows(x, phases, n_senders)
    states, _ = walked(rows)
    outcomes, target3 = _all_outcomes(n_senders), compressed_target(x, phases).amps
    _, finals = protocol._class_grid(rows)
    z = protocol._every_z(n_senders)
    frames, apply, failure = [], protocol._apply_corrections, None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_apply_corrections", lambda s, f: frames.append(f.copy()) or apply(s, f))
        patch.setattr(protocol, "_search_corrections", refuse_search)
        try:
            found, corrected, fidelities, row = protocol._corrections(outcomes, finals, z, target3)
        except NoCorrectionFound as exc:
            failure = str(exc)
    (classes,) = frames  # class (k, z) at row 8k + z
    frame = classes[8 * outcomes[:, 0] + z]
    weights = protocol._correction_weights(target3)
    einsum_missed = ~(np.abs(np.einsum("bm,mb->b", states, weights[:, frame])) ** 2 >= 1.0 - FIDELITY_TOL)
    frame_fidelities = np.abs(_apply_corrections(states, frame) @ target3.conj()) ** 2
    assert np.array_equal(~(frame_fidelities >= 1.0 - FIDELITY_TOL), einsum_missed)
    if einsum_missed.any():
        b = einsum_missed.nonzero()[0][0]
        assert failure == (f"correction {_TRIPLES[frame[b]]} for outcome {tuple(outcomes[b].tolist())}"
                           f" misses the target (fidelity {float(frame_fidelities[b])!r})")
    else:
        assert failure is None
        searched = _search_corrections(states, target3)
        assert np.array_equal(found, searched)
        assert_bits_equal_up_to_zero_sign(corrected[row], _apply_corrections(states, searched))
        assert_bits_equal(fidelities, frame_fidelities)
    return einsum_missed.sum()


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_one_pass_decides_as_the_search_on_random_profiles(n_senders, data):
    assert_one_pass_decides_as_the_search(*data.draw(profiles(n_senders)), n_senders)


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
@pytest.mark.parametrize("case", ["e0", "e0+e1 zero-phase", "sign column flipped"])
def test_one_pass_decides_as_the_search_on_edge_cases(case, n_senders, monkeypatch):
    # x = e0 under generic shares and the zero-phase (e0 + e1)/sqrt 2 profile
    # tie several triples. A negated SIGN_PATTERN column passes the grid, as
    # row 0 turns with every other row, but each phase sender negates that
    # entry of the state: the frame misses every branch at N = 2 and 4, which
    # raises, and none at N = 3 and 5, whose senders cancel the signs.
    generic = random_phase_shares(np.random.default_rng(60 + n_senders), n_senders)
    if case == "sign column flipped":
        flipped = SIGN_PATTERN.copy()
        flip_column(flipped)
        monkeypatch.setattr(bases, "SIGN_PATTERN", flipped)
        x, phases = random_inputs(n_senders, 1)
    elif case == "e0":
        x, phases = AmplitudeProfile(TIED_MAGNITUDES["e0"]), generic
    else:
        x, phases = AmplitudeProfile(TIED_MAGNITUDES["e0+e1"]), PhaseShares(np.zeros((n_senders - 1, 8)))
    missed = assert_one_pass_decides_as_the_search(x, phases, n_senders)
    assert missed == (8**n_senders if case == "sign column flipped" and n_senders % 2 == 0 else 0)


@pytest.mark.parametrize("n_senders", [2, 3, 4])
def test_the_table_is_the_searched_table(n_senders):
    # The table's triples are those a search of every branch of its profile
    # derives, and its fidelities those triples' on that profile, in either
    # order of the conjugation.
    x, phases = random_inputs(n_senders, TABLE_SEED)
    states, _ = walked(sender_rows(x, phases, n_senders))
    target3 = compressed_target(x, phases).amps
    found = _search_corrections(states, target3)
    table = build_correction_table(n_senders)
    assert np.array_equal(table.triples, found)
    assert_bits_equal(table.fidelities, np.abs(_apply_corrections(states, found) @ target3.conj()) ** 2)
    assert_bits_equal(table.fidelities, np.abs(_apply_corrections(states, found).conj() @ target3) ** 2)


ROW_SWAP_COMMANDS = {
    "verify-2": ["verify", "--senders", "2", "--exhaustive"],
    "verify-3": ["verify", "--senders", "3", "--exhaustive"],
    "sampled-3": ["verify", "--senders", "3", "--trials", "30"],
    "table-2": ["table", "--senders", "2"],
    "forced-0:0": ["run", "--senders", "2", "--force-outcome", "0:0"],
    "forced-7:7": ["run", "--senders", "2", "--force-outcome", "7:7"],
}


@pytest.mark.parametrize("argv", ROW_SWAP_COMMANDS.values(), ids=ROW_SWAP_COMMANDS.keys())
def test_every_row_swapped_layout_is_an_oracle_failure(argv, monkeypatch, capsys):
    # Each of the 28 swaps of two SIGN_PATTERN rows keeps every basis
    # orthonormal but relabels the phase senders' outcomes, so the grid
    # refuses the first phase sender's rows for k = 0 in every mode, the
    # forced digit corners, whose frames the swap keeps, too: the command
    # exits 3 with one oracle-failure line and nothing on stdout, and nothing
    # searches.
    monkeypatch.setattr(protocol, "_search_corrections", refuse_search)
    for rows in itertools.combinations(range(8), 2):
        swapped = SIGN_PATTERN.copy()
        swapped[list(rows)] = swapped[list(rows[::-1])]
        monkeypatch.setattr(bases, "SIGN_PATTERN", swapped)
        assert main(argv) == EXIT_ORACLE_ERROR, rows
        out, err = capsys.readouterr()
        assert out == "", rows
        assert err == ("oracle failure: phase sender 1's basis rows for k=0 are not its row 0 times the Walsh"
                       " signs\n"), rows


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_runs_never_search_on_the_paper_layout(n_senders, monkeypatch, capsys):
    # Every verify, run and table takes its corrections from the frame.
    n, forced = str(n_senders), "7:" + ",".join("7" * (n_senders - 1))
    if n_senders <= 3:
        assert main(["table", "--senders", n]) == EXIT_PASS
        unpatched = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(protocol, "_search_corrections", refuse)
    for argv in (["verify", "--senders", n, "--exhaustive"], ["verify", "--senders", n, "--trials", "300"],
                 ["run", "--senders", n, "--seed", "3"], ["run", "--senders", n, "--force-outcome", forced]):
        assert main(argv) == EXIT_PASS, argv
    capsys.readouterr()
    assert main(["table", "--senders", n]) == EXIT_PASS
    if n_senders <= 3:
        assert capsys.readouterr().out == unpatched


def composed_target(x, phases):
    """The compressed target through the records' own checks: the shares
    composed into a PhaseProfile, the product held in a StateVector."""
    if isinstance(phases, PhaseShares):
        phases = bases.compose_phases(phases)
    return StateVector(x.x * np.exp(1j * phases.delta)).amps


def assert_run_target_is_compressed_target(x, phases, n_senders):
    # Runs compute the target straight from the validated records: the one
    # a run hands to its corrections is compressed_target's, bit for bit.
    seen, real = [], protocol._corrections
    sets = measurement_bases(x, phases, n_senders)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_corrections", lambda o, f, z, t: seen.append(t) or real(o, f, z, t))
        run_branches(x, phases, sets, "sampled", None, 1, (0, (0,) * (n_senders - 1)))
    assert len(seen) == 1
    assert_bits_equal(seen[0], compressed_target(x, phases).amps)
    assert_bits_equal(seen[0], composed_target(x, phases))


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_run_target_is_compressed_target(n_senders, data):
    assert_run_target_is_compressed_target(*data.draw(profiles(n_senders)), n_senders)


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_run_target_is_compressed_target_on_edge_profiles(n_senders):
    # x = e0, the zero-phase (e0 + e1)/sqrt 2 profile, and shares near 1e6 rad.
    gen = np.random.default_rng(50 + n_senders)
    generic = gen.uniform(0.0, 2.0 * np.pi, (n_senders - 1, 8))
    signs = np.where(gen.random((n_senders - 1, 8)) < 0.5, -1.0, 1.0)
    near_1e6 = signs * (1e6 + gen.uniform(-10.0, 10.0, (n_senders - 1, 8)))
    generic[:, 0] = near_1e6[:, 0] = 0.0
    for magnitudes, rows in ((TIED_MAGNITUDES["e0"], generic), (TIED_MAGNITUDES["e0+e1"], np.zeros((n_senders - 1, 8))),
                             (random_amplitude_profile(gen).x, near_1e6)):
        x = AmplitudeProfile(magnitudes)
        assert_run_target_is_compressed_target(x, PhaseShares(rows), n_senders)
        if n_senders == 2:
            assert_run_target_is_compressed_target(x, PhaseProfile(rows[0]), n_senders)


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_the_table_walks_one_basis_stack(n_senders, monkeypatch):
    # The profile's phase rows take one build and one Gram product; the rows
    # the grid reads are its basis stack, conjugated, each basis bit for bit
    # the one built alone.
    x, phases = random_inputs(n_senders, TABLE_SEED)
    expected = measurement_bases(x, phases, n_senders).vectors.conj()
    for k in range(8):
        assert_bits_equal(expected[0, k], x.basis.vectors.conj())
        for l in range(1, n_senders):
            single = bases.phase_basis(k, phases) if n_senders == 2 else bases.share_basis(k, l, phases)
            assert_bits_equal(expected[l, k], single.vectors.conj())
    gridded, builds, grams, targets = [], [], [], []
    grid, build, gram = protocol._class_grid, bases.phase_bases_from_rows, bases.gram_deviation
    corrections = protocol._corrections
    monkeypatch.setattr(protocol, "_class_grid", lambda rows: gridded.append(rows) or grid(rows))
    monkeypatch.setattr(bases, "phase_bases_from_rows", lambda rows, lab: builds.append(len(rows)) or build(rows, lab))
    monkeypatch.setattr(bases, "gram_deviation", lambda vectors: grams.append(vectors.shape) or gram(vectors))
    monkeypatch.setattr(protocol, "_corrections", lambda o, f, z, t: targets.append(t) or corrections(o, f, z, t))
    build_correction_table(n_senders)
    assert builds == [n_senders - 1] and grams == [(n_senders - 1, 8, 8, 8)]
    assert len(gridded) == 1 and len(targets) == 1
    assert_bits_equal(gridded[0], expected)
    assert_bits_equal(targets[0], composed_target(x, phases))


def special_rows(rng, rows):
    """Random complex rows; about a third of their parts, in every third row, are +-0, +-inf or NaN."""
    states = rng.standard_normal((rows, 8)) + 1j * rng.standard_normal((rows, 8))
    parts = states[::3].view(float)
    hit = rng.random(parts.shape) < 1 / 3
    parts[hit] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], hit.sum())
    return states


@pytest.mark.parametrize("rows", [*range(1, 10), 512])
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")  # inf * 0, on both sides
def test_flat_gathers_are_the_fancy_index_and_scatter_bit_for_bit(rows):
    # _apply_corrections and _correction_weights against the 2-D gather and
    # the (8, 64) scatter they replace, on every triple and random ones.
    rng = np.random.default_rng(rows)
    states = special_rows(rng, rows)
    for found in (*(np.full(rows, t) for t in range(len(_TRIPLES))), rng.integers(0, len(_TRIPLES), rows)):
        expected = protocol._TRIPLE_SIGN[found] * states[np.arange(rows)[:, None], protocol._TRIPLE_PERM[found]]
        assert_bits_equal(_apply_corrections(states, found), expected)
    for target3 in states:
        expected = np.empty((8, len(_TRIPLES)), dtype=complex)
        expected[protocol._TRIPLE_PERM, np.arange(len(_TRIPLES))[:, None]] = protocol._TRIPLE_SIGN * target3.conj()
        weights = protocol._correction_weights(target3)
        assert weights.flags.c_contiguous
        assert_bits_equal(weights, expected)


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_walsh_xor_is_the_xor_reduce(n_senders):
    # A branch's z is the XOR of its digits' Walsh indices, in `_every_z`'s
    # layout over every branch and gathered by `_drawn` for a batch of 1 to 9
    # drawn ones; class (k, z) negates k's representative exactly where the
    # branch's phase rows, as built, are their row 0 negated an odd number
    # of times.
    x, phases = random_inputs(n_senders, n_senders)
    rows = sender_rows(x, phases, n_senders)
    table = protocol._class_grid(rows)[0]
    negated = rows[1:] == -rows[1:, :, :1]
    rng = np.random.default_rng(n_senders)
    every = protocol._every_z(n_senders)
    for outcomes in (_all_outcomes(n_senders), *(rng.integers(0, 8, (b, n_senders)) for b in range(1, 10))):
        walsh = np.bitwise_xor.reduce(bases.WALSH_INDEX[outcomes], axis=1)
        z = protocol._drawn(table, outcomes)[1]
        assert z.dtype == walsh.dtype
        assert_bits_equal(z, walsh)
        assert_bits_equal(every[np.ravel_multi_index(outcomes.T, (8,) * n_senders)], z)
        flips = np.bitwise_xor.reduce(negated[np.arange(n_senders - 1), outcomes[:, :1], outcomes[:, 1:]], axis=1)
        assert np.array_equal(protocol._CLASS_NEGATED[outcomes[:, 0], z], flips)
