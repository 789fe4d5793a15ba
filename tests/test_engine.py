"""The reduced GHZ-diagonal engine against the dense statevector oracle.

The runners compute every branch from the channel's 8-term diagonal
(`_collapse_branches`), then correct and expand the receiver's 8-vectors
batched; the sampler draws every trial of a chunk at once, each trial
carrying the receiver's 8-vector. `_dense_branch` measures the full
register with the dense engine, and `_TRIPLE_MATRIX` and `parity_expand`
are the dense correction and expansion. Both paths renormalize after
every measurement, so states and step probabilities agree to rounding,
entrywise and without any global phase alignment.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi_jrsp import protocol
from chi_jrsp.bases import (
    AmplitudeProfile,
    PhaseProfile,
    PhaseShares,
    random_amplitude_profile,
    random_inputs,
    random_phase_profile,
    random_phase_shares,
)
from chi_jrsp.protocol import (
    _TRIPLES,
    FIDELITY_TOL,
    MAX_SENDERS,
    _TRIPLE_MATRIX,
    NoCorrectionFound,
    _all_outcomes,
    _apply_correction,
    _apply_corrections,
    _basis_rows,
    _collapse_branches,
    _dense_branch,
    _expand_parity,
    _sampled_outcomes,
    _search_corrections,
    compressed_target,
    measurement_bases,
    parity_expand,
    run_branches,
)
from chi_jrsp.qstate import StateVector, fidelity_up_to_phase

ENGINE_TOL = 1e-15

MAGNITUDES = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
PHASES = st.one_of(st.floats(-7.0, 7.0), st.floats(1e6 - 10.0, 1e6 + 10.0), st.floats(-1e6 - 10.0, -1e6 + 10.0))


def dense_search(collapsed: StateVector, target3: StateVector):
    """First triple in search order that reaches the threshold, as 8x8 matrices."""
    for triple, matrix in zip(_TRIPLES, _TRIPLE_MATRIX):
        if fidelity_up_to_phase(StateVector(matrix @ collapsed.amps), target3) >= 1.0 - FIDELITY_TOL:
            return triple
    return None


def sender_rows(x, phases, n_senders):
    return _basis_rows(measurement_bases(x, phases, n_senders))[0]


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


def test_search_does_not_depend_on_chunk_size(monkeypatch):
    # 512 branches in chunks of 7 are 74 chunks, the last one a single row.
    states, target3 = three_sender_search(5)
    whole = _search_corrections(states, target3)
    monkeypatch.setattr(protocol, "_SEARCH_CHUNK", 7)
    assert np.array_equal(_search_corrections(states, target3), whole)


@pytest.mark.parametrize("chunk", [protocol._SEARCH_CHUNK, 7])
def test_unmatched_row_in_last_short_chunk_raises(chunk, monkeypatch):
    monkeypatch.setattr(protocol, "_SEARCH_CHUNK", chunk)
    states, target3 = three_sender_search(6)
    states = states[:100].copy()
    assert len(states) % chunk
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


@pytest.mark.parametrize("n_senders", range(2, MAX_SENDERS + 1))
def test_sampler_matches_replaying_reference_on_skewed_rows(n_senders):
    # Orthonormal bases make every conditional probability 1/8, so the draws
    # barely depend on the walk; arbitrary rows make every step count. Only
    # the magnitude sender's rows must not depend on k.
    gen = np.random.default_rng(n_senders)
    for seed in range(20):
        rows = gen.standard_normal((n_senders, 8, 8, 8)) + 1j * gen.standard_normal((n_senders, 8, 8, 8))
        rows[0] = rows[0, 0]
        assert_sampler_matches_reference(rows, n_senders, seed, trials=20)


def test_sampler_walks_each_trial_once(monkeypatch):
    # The sampler replays no prefix, and a sampled run takes its states and
    # steps from the sampler instead of collapsing the drawn branches again.
    def refuse(*args):
        raise AssertionError("a sampled run called _collapse_branches")

    x, phases = random_inputs(5, 0)
    sets = measurement_bases(x, phases, 5)
    rows = _basis_rows(sets)[0]
    monkeypatch.setattr(protocol, "_collapse_branches", refuse)
    assert _sampled_outcomes(rows, 5, np.random.default_rng(0), 10)[0].shape == (10, 5)
    assert run_branches(x, phases, sets, "sampled", 0, 300, None).outcomes.shape == (300, 5)


@pytest.mark.parametrize("n_senders", [2, 5])
def test_sampler_draws_do_not_depend_on_chunk_size(n_senders, monkeypatch):
    # 20 trials in chunks of 7 are three chunks, the last one short.
    gen = np.random.default_rng(10 + n_senders)
    rows = gen.standard_normal((n_senders, 8, 8, 8)) + 1j * gen.standard_normal((n_senders, 8, 8, 8))
    rows[0] = rows[0, 0]
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
    # bit, on real profiles and on the skewed rows above. 300 trials end in a
    # short chunk at either chunk size: 256 + 44, and 42 * 7 + 6.
    monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", chunk)
    gen = np.random.default_rng(n_senders)
    for seed in range(8):
        x, phases = random_inputs(n_senders, seed)
        assert_sampler_collapses_as_engine(sender_rows(x, phases, n_senders), n_senders, seed, trials=300)
        rows = gen.standard_normal((n_senders, 8, 8, 8)) + 1j * gen.standard_normal((n_senders, 8, 8, 8))
        rows[0] = rows[0, 0]
        assert_sampler_collapses_as_engine(rows, n_senders, seed, trials=300)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_sampler_rejects_non_finite_probabilities():
    # All-zero rows give 0/0 probabilities, which Generator.choice rejects.
    rows = np.zeros((3, 8, 8, 8), dtype=complex)
    with pytest.raises(ValueError):
        replaying_sampler(rows, 3, np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        _sampled_outcomes(rows, 3, np.random.default_rng(0), 4)
