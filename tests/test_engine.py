"""The reduced GHZ-diagonal engine against the dense statevector oracle.

Every run and table walks one representative branch per announced k from
the channel's 8-term diagonal (`_class_grid`): its step table holds every
branch's step probabilities, and its final states, negated by each branch's
XOR of sign masks, every branch's state up to the sign of zero. Exhaustive
runs and tables correct one state per (k, mask) class and gather it to the
branches (`_every_branch`); sampled and forced runs collapse only their own
branches in one pass. The runners correct and expand the receiver's
8-vectors batched, with the Pauli frame of each branch's digits, which must
pick the search's triple on every profile and never search; a layout the
frame misses is an oracle failure.
`_collapse_branches`, which gathers one row per branch, is the
reference that the grid, the classes and the pass equal in every mode, and
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
    _walsh_xor,
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


def assert_sampler_matches_reference(rows, n_senders, seed, trials):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn, _, _ = _sampled_outcomes(rows, n_senders, rng, trials)
    assert np.array_equal(drawn, replaying_sampler(rows, n_senders, reference_rng, trials))
    assert rng.bit_generator.state == reference_rng.bit_generator.state

    boundary = BoundaryRng()
    expected = replaying_sampler(rows, n_senders, boundary, trials)
    assert np.array_equal(_sampled_outcomes(rows, n_senders, boundary, trials)[0], expected)
    assert boundary.served == trials * n_senders


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_sampler_matches_replaying_reference(n_senders):
    for seed in range(25):
        x, phases = random_inputs(n_senders, seed)
        assert_sampler_matches_reference(sender_rows(x, phases, n_senders), n_senders, seed, trials=20)


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_sampler_matches_replaying_reference_on_random_profiles(n_senders, data, seed):
    x, phases = data.draw(profiles(n_senders))
    assert_sampler_matches_reference(sender_rows(x, phases, n_senders), n_senders, seed, trials=10)


def arbitrary_rows(gen, n_senders):
    return gen.standard_normal((n_senders, 8, 8, 8)) + 1j * gen.standard_normal((n_senders, 8, 8, 8))


def skewed_rows(gen, n_senders):
    """Arbitrary rows for the magnitude sender and the last party, which the
    step table reads as given; each middle party's rows for k are random +-1
    signs times one arbitrary complex row, the form that a sign pattern gives
    and the table needs. Then the same rows with the magnitude sender's bases
    all equal to her basis 0, the form that `measurement_bases` gives."""
    rows = arbitrary_rows(gen, n_senders)
    rows[1:-1] = gen.choice([-1.0, 1.0], (n_senders - 2, 8, 8, 8)) * rows[1:-1, :, :1]
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
    # of basis d, as the reference does.
    gen = np.random.default_rng(n_senders)
    for seed in range(20):
        for rows in skewed_rows(gen, n_senders):
            assert_sampler_matches_reference(rows, n_senders, seed, trials=20)


def test_sampler_walks_each_trial_once(monkeypatch):
    # The sampler replays no prefix, and a sampled run takes its states and
    # steps from the sampler instead of collapsing the drawn branches again.
    # A forced five-sender run takes the same walk.
    def refuse(*args):
        raise AssertionError("a sampled or forced run called _collapse_branches")

    x, phases = random_inputs(5, 0)
    sets = measurement_bases(x, phases, 5)
    rows = sets.vectors.conj()
    monkeypatch.setattr(protocol, "_collapse_branches", refuse)
    assert _sampled_outcomes(rows, 5, np.random.default_rng(0), 10)[0].shape == (10, 5)
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
        monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", default)
        whole = _sampled_outcomes(rows, n_senders, np.random.default_rng(3), 20)
        monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", 7)
        chunked = _sampled_outcomes(rows, n_senders, np.random.default_rng(3), 20)
        for got, expected in zip(chunked, whole):
            assert np.array_equal(got, expected)
        assert_sampler_matches_reference(rows, n_senders, seed=3, trials=20)


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_sampler_collapses_as_engine(rows, n_senders, seed, trials):
    drawn, states, steps = _sampled_outcomes(rows, n_senders, np.random.default_rng(seed), trials)
    expected_states, expected_steps = _collapse_branches(rows, drawn)
    assert_bits_equal(states, expected_states)
    assert_bits_equal(steps, expected_steps)


@pytest.mark.parametrize("chunk", [protocol._SAMPLE_CHUNK, 7])
@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_sampled_states_and_steps_equal_collapse(n_senders, chunk, monkeypatch):
    # The sampler's states and steps are those of the drawn branches, bit for
    # bit, on real profiles and on both kinds of skewed rows above. 300 trials
    # end in a short chunk at either chunk size: 256 + 44, and 42 * 7 + 6.
    monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", chunk)
    gen = np.random.default_rng(n_senders)
    for seed in range(8):
        x, phases = random_inputs(n_senders, seed)
        assert_sampler_collapses_as_engine(sender_rows(x, phases, n_senders), n_senders, seed, trials=300)
        for rows in skewed_rows(gen, n_senders):
            assert_sampler_collapses_as_engine(rows, n_senders, seed, trials=300)


@pytest.mark.parametrize("n_senders", range(3, MAX_SENDERS + 1))
def test_middle_rows_off_their_signs_raise(n_senders):
    # The step table holds every branch's steps only if each middle party's
    # rows for k are its row 0 up to entrywise signs. Arbitrary rows there,
    # in both of the old skewed forms, raise from the sampler and from a
    # forced run; so does one entry of a paper basis turned by a unit phase,
    # which keeps every magnitude.
    x, phases = random_inputs(n_senders, 0)
    sets = measurement_bases(x, phases, n_senders)
    turned = sets.vectors.copy()
    turned[n_senders - 2, 3, 5, 2] *= 1j
    arbitrary = arbitrary_rows(np.random.default_rng(30 + n_senders), n_senders)
    same = arbitrary.copy()
    same[0] = same[0, 0]
    force = (3, (5,) * (n_senders - 1))
    for rows in (arbitrary, same, turned.conj()):
        with pytest.raises(ValueError, match="row 0 up to entrywise signs"):
            _sampled_outcomes(rows, n_senders, np.random.default_rng(0), 20)
        broken = protocol.MeasurementBases(rows.conj(), sets.labels, sets.deviations)
        with pytest.raises(ValueError, match="row 0 up to entrywise signs"):
            run_branches(x, phases, broken, "sampled", 0, 1, force)


def flip_column(pattern):
    pattern[:, 5] *= -1


def swap_rows(pattern):
    pattern[[1, 2]] = pattern[[2, 1]]


def tied_profiles(n_senders):
    """A tied magnitude profile under zero phases."""
    return st.sampled_from(list(TIED_MAGNITUDES.values())).map(
        lambda m: (AmplitudeProfile(m), PhaseShares(np.zeros((n_senders - 1, 8)))))


@pytest.mark.parametrize("n_senders", [2, 3, 4])
@pytest.mark.filterwarnings("error")
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_step_table_is_every_branch_step(n_senders, data):
    # Entry [p, k, j] of the grid's table is, bit for bit, the reference's step
    # at party p of every branch with announced k and digit j (party 0's
    # digit is k, on every row of hers), on random and tied profiles, under
    # the paper's sign pattern and two +-1 mutants of it. A table of one k is
    # that k's row of the full table.
    x, phases = data.draw(st.one_of(profiles(n_senders), tied_profiles(n_senders)))
    change = data.draw(st.sampled_from([None, flip_column, swap_rows]))
    with pytest.MonkeyPatch.context() as patch:
        if change is not None:
            pattern = SIGN_PATTERN.copy()
            change(pattern)
            patch.setattr(bases, "SIGN_PATTERN", pattern)
        rows = sender_rows(x, phases, n_senders)
    table = protocol._class_grid(rows, slice(None))[0]
    _, steps = walked(rows)
    outcomes = _all_outcomes(n_senders)
    for c in range(8):
        assert_bits_equal(table[0, c, outcomes[:, 0]], steps[:, 0])
    for p in range(1, n_senders):
        assert_bits_equal(table[p, outcomes[:, 0], outcomes[:, p]], steps[:, p])
    for k in range(8):
        assert_bits_equal(protocol._class_grid(rows, slice(k, k + 1))[0][:, 0], table[:, k])


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_the_grid_is_the_per_branch_reference(n_senders, data):
    # On random and tied profiles, under the paper's sign pattern and its
    # row-swap and column-negation mutants: the grid's steps equal the
    # reference's bit for bit and its states up to the sign of zero, and an
    # exhaustive run's triples and fidelities are those that `_corrections`
    # gives the reference's states, bit for bit, its corrected states up to
    # the sign of zero; or both raise the same miss, at the first branch.
    x, phases = data.draw(st.one_of(profiles(n_senders), tied_profiles(n_senders)))
    change = data.draw(st.sampled_from([None, flip_column, swap_rows]))
    with pytest.MonkeyPatch.context() as patch:
        if change is not None:
            pattern = SIGN_PATTERN.copy()
            change(pattern)
            patch.setattr(bases, "SIGN_PATTERN", pattern)
        rows = sender_rows(x, phases, n_senders)
    assert_tree_equals_collapse(rows)
    outcomes, target3 = _all_outcomes(n_senders), compressed_target(x, phases).amps
    states, steps = walked(rows)
    try:
        expected = protocol._corrections(outcomes, states, target3)
    except NoCorrectionFound as exc:
        with pytest.raises(NoCorrectionFound) as raised:
            protocol._every_branch(rows, target3)
        assert str(raised.value) == str(exc)
        return
    got_outcomes, got_steps, found, corrected, fidelities, row = protocol._every_branch(rows, target3)
    assert np.array_equal(got_outcomes, outcomes)
    assert_bits_equal(got_steps, steps)
    assert np.array_equal(found, expected[0])
    assert_bits_equal_up_to_zero_sign(corrected[row], expected[1])
    assert_bits_equal(fidelities, expected[2])
    assert len(corrected) == 64 or change is not None  # one class per (k, z) on the paper's layout


@pytest.mark.filterwarnings("error")
def test_an_undrawn_zero_class_is_silent():
    # Row 3 of the magnitude sender's basis 3 is zero, so k = 3 has
    # probability 0 and its table rows are 0/0. No trial draws it, so the
    # sampler neither warns nor raises, and the drawn branches collapse as
    # the reference collapses them.
    x, phases = random_inputs(3, 0)
    rows = sender_rows(x, phases, 3).copy()
    rows[0, 3, 3] = 0.0
    assert 3 not in _sampled_outcomes(rows, 3, np.random.default_rng(0), 300)[0][:, 0]
    assert_sampler_collapses_as_engine(rows, 3, 0, 300)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_sampler_rejects_non_finite_probabilities():
    # All-zero rows give 0/0 probabilities, which Generator.choice rejects.
    rows = np.zeros((3, 8, 8, 8), dtype=complex)
    with pytest.raises(ValueError):
        replaying_sampler(rows, 3, np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        _sampled_outcomes(rows, 3, np.random.default_rng(0), 4)


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
    of each digit, and its k's final state negated where the sign masks of its phase rows (the entries
    that equal their row 0's negation) XOR to 1."""
    n = rows.shape[-4]
    outcomes = _all_outcomes(n)
    table, finals = protocol._class_grid(rows, slice(None))
    negated = rows[1:] == -rows[1:, :, :1]
    flips = np.bitwise_xor.reduce(negated[np.arange(n - 1), outcomes[:, :1], outcomes[:, 1:]], axis=1)
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
    # sender's rows for k are one arbitrary row times random signs, the form
    # that the grid needs; arbitrary rows there are refused by every
    # exhaustive run and table.
    gen = np.random.default_rng(20 + n_senders)
    for _ in range(3):
        rows = arbitrary_rows(gen, n_senders)
        with pytest.raises(ValueError, match="row 0 up to entrywise signs"):
            protocol._every_branch(rows, rows[0, 0, 0])
        rows[1:] = gen.choice([-1.0, 1.0], (n_senders - 1, 8, 8, 8)) * rows[1:, :, :1]
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
    # more rows; `_corrections` pads a one-row batch, so every chunk size, and
    # the short tail of 100 rows in chunks of 3, 6, 7, 8 or 9, gives the bits
    # of the whole batch.
    x, phases = random_inputs(n_senders, 0)
    run = run_branches(x, phases, measurement_bases(x, phases, n_senders), "exhaustive", None, 1, None)
    states, _ = walked(sender_rows(x, phases, n_senders))
    rows = np.random.default_rng(n_senders).permutation(len(states))[:100]
    target3 = compressed_target(x, phases).amps
    for size in range(1, 10):
        for start in range(0, len(rows), size):
            b = rows[start : start + size]
            found, corrected, fidelities = protocol._corrections(run.outcomes[b], states[b], target3)
            assert np.array_equal(found, run.triples[b])
            assert_bits_equal(corrected, run.corrected[b])
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
    """`_corrections` corrects once with the frame and never searches. Its miss
    mask is the one the frame's weight columns give (`einsum` over the (8, B)
    columns). With no miss, its triples are the search's and its corrected
    states and fidelities those of the search's triples, bit for bit; a miss
    raises NoCorrectionFound, which names the first missed branch."""
    states, _ = walked(sender_rows(x, phases, n_senders))
    outcomes, target3 = _all_outcomes(n_senders), compressed_target(x, phases).amps
    frames, apply, failure = [], protocol._apply_corrections, None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_apply_corrections", lambda s, f: frames.append(f.copy()) or apply(s, f))
        patch.setattr(protocol, "_search_corrections", refuse_search)
        try:
            found, corrected, fidelities = protocol._corrections(outcomes, states, target3)
        except NoCorrectionFound as exc:
            failure = str(exc)
    (frame,) = frames
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
        assert_bits_equal(corrected, _apply_corrections(states, searched))
        assert_bits_equal(fidelities, frame_fidelities)
    return einsum_missed.sum()


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_one_pass_decides_as_the_search_on_random_profiles(n_senders, data):
    assert_one_pass_decides_as_the_search(*data.draw(profiles(n_senders)), n_senders)


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
@pytest.mark.parametrize("case", ["e0", "e0+e1 zero-phase", "sign rows swapped"])
def test_one_pass_decides_as_the_search_on_edge_cases(case, n_senders, monkeypatch):
    # x = e0 under generic shares and the zero-phase (e0 + e1)/sqrt 2 profile
    # tie several triples, and swapped SIGN_PATTERN rows make the frame miss,
    # which raises.
    generic = random_phase_shares(np.random.default_rng(60 + n_senders), n_senders)
    if case == "sign rows swapped":
        swapped = SIGN_PATTERN.copy()
        swapped[[1, 2]] = swapped[[2, 1]]
        monkeypatch.setattr(bases, "SIGN_PATTERN", swapped)
        x, phases = random_inputs(n_senders, 1)
    elif case == "e0":
        x, phases = AmplitudeProfile(TIED_MAGNITUDES["e0"]), generic
    else:
        x, phases = AmplitudeProfile(TIED_MAGNITUDES["e0+e1"]), PhaseShares(np.zeros((n_senders - 1, 8)))
    missed = assert_one_pass_decides_as_the_search(x, phases, n_senders)
    assert (missed > 0) == (case == "sign rows swapped")


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
    "table-2": ["table", "--senders", "2"],
}


@pytest.mark.parametrize("argv", ROW_SWAP_COMMANDS.values(), ids=ROW_SWAP_COMMANDS.keys())
def test_every_row_swapped_layout_is_an_oracle_failure(argv, monkeypatch, capsys):
    # Each of the 28 swaps of two SIGN_PATTERN rows keeps every basis
    # orthonormal but relabels the phase senders' outcomes, so the frame
    # misses a branch: the command exits 3 with one oracle-failure line and
    # nothing on stdout, and nothing searches.
    monkeypatch.setattr(protocol, "_search_corrections", refuse_search)
    for rows in itertools.combinations(range(8), 2):
        swapped = SIGN_PATTERN.copy()
        swapped[list(rows)] = swapped[list(rows[::-1])]
        monkeypatch.setattr(bases, "SIGN_PATTERN", swapped)
        assert main(argv) == EXIT_ORACLE_ERROR, rows
        out, err = capsys.readouterr()
        assert out == "", rows
        assert err.startswith("oracle failure: correction ") and err.count("\n") == 1, (rows, err)


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
        patch.setattr(protocol, "_corrections", lambda o, s, t: seen.append(t) or real(o, s, t))
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
    monkeypatch.setattr(protocol, "_class_grid", lambda rows, *args: gridded.append(rows) or grid(rows, *args))
    monkeypatch.setattr(bases, "phase_bases_from_rows", lambda rows, lab: builds.append(len(rows)) or build(rows, lab))
    monkeypatch.setattr(bases, "gram_deviation", lambda vectors: grams.append(vectors.shape) or gram(vectors))
    monkeypatch.setattr(protocol, "_corrections", lambda o, s, t, *c: targets.append(t) or corrections(o, s, t, *c))
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
    rng = np.random.default_rng(n_senders)
    for outcomes in (_all_outcomes(n_senders), *(rng.integers(0, 8, (rows, n_senders)) for rows in range(1, 10))):
        expected = np.bitwise_xor.reduce(bases.WALSH_INDEX[outcomes], axis=1)
        got = _walsh_xor(outcomes)
        assert got.dtype == expected.dtype
        assert_bits_equal(got, expected)
