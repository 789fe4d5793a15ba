"""Measurement-basis construction for the joint preparation protocols.

The target family is parameterized by eight real magnitudes x_j and eight
phases. The magnitude-knowing sender measures in a basis built from an 8x8
signed layout of the x_j; each phase-knowing sender measures, conditioned on
the announced outcome k, in a basis whose entries are unit phases arranged
under a fixed 8x8 sign pattern. Both layouts derive from one Walsh index,
and tests pin them to the paper's printed tables; orthonormality is a
consequence of the sign structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qstate import NORM_TOL, BasisSet, gram_deviation, require_orthonormal

_INV_2SQRT2 = 1.0 / (2.0 * np.sqrt(2.0))

# The one definition of both layouts. WALSH_CHARACTERS[z, m] is
# (-1)**popcount(z & m); row j of the sign table is character WALSH_INDEX[j],
# and argument slot m of row k holds entry k ^ m: the phase bases take unit
# phase r_(k^m) there (r_0 is the constant 1), the amplitude layout magnitude
# x_(k^m). The Pauli frame and the corrections read these tables. The +-1 rows
# are orthogonal, so each phase basis is orthonormal after the 1/(2 sqrt 2) scaling.
WALSH_INDEX = np.array((0, 1, 7, 2, 5, 6, 3, 4))
WALSH_CHARACTERS = np.array([[(-1.0) ** bin(z & m).count("1") for m in range(8)] for z in range(8)])
_PHASE_ARGS = np.bitwise_xor.outer(np.arange(8), np.arange(8))
PHASE_ARG_INDEX = tuple(map(tuple, _PHASE_ARGS.tolist()))
# The amplitude layout reads this import-time copy, so a replaced
# SIGN_PATTERN, as the mutant checks swap in, reaches only the phase bases.
_SIGNS = WALSH_CHARACTERS[WALSH_INDEX]
SIGN_PATTERN = _SIGNS.copy()


@dataclass(frozen=True)
class AmplitudeProfile:
    """Eight real magnitudes with sum of squares 1, judged by the Gram check
    of the amplitude basis they build (its diagonal is the sum of squares).
    The profile keeps that basis as `basis`: it is the magnitude sender's."""

    x: np.ndarray
    basis: BasisSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.array(self.x, dtype=float).reshape(-1)
        if x.size != 8:
            raise ValueError(f"amplitude profile needs 8 entries, got {x.size}")
        if not np.isfinite(x).all():
            raise ValueError("amplitude profile entries must be finite")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        try:
            basis = amplitude_basis(self)
        except ValueError as exc:
            raise ValueError(f"amplitude profile not normalized: {exc}") from None
        object.__setattr__(self, "basis", basis)


@dataclass(frozen=True)
class PhaseProfile:
    """Eight phases in radians; entry 0 must be exactly 0."""

    delta: np.ndarray

    def __post_init__(self):
        delta = np.array(self.delta, dtype=float).reshape(-1)
        if delta.size != 8:
            raise ValueError(f"phase profile needs 8 entries, got {delta.size}")
        if not np.isfinite(delta).all():
            raise ValueError("phase profile entries must be finite")
        if delta[0] != 0.0:
            raise ValueError("phase profile entry 0 must be exactly 0")
        delta.setflags(write=False)
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True)
class PhaseShares:
    """Per-sender phase shares: row l-1 holds sender l's eight phases.

    The full phase profile is the entrywise sum of the rows, which must be
    finite. Each row's entry 0 must be exactly 0, so the composed profile
    keeps entry 0 at 0.
    """

    shares: np.ndarray

    def __post_init__(self):
        shares = np.array(self.shares, dtype=float)
        if shares.ndim != 2 or shares.shape[1] != 8 or shares.shape[0] < 1:
            raise ValueError(f"phase shares need shape (rows>=1, 8), got {shares.shape}")
        if not np.isfinite(shares).all():
            raise ValueError("phase share entries must be finite")
        if (shares[:, 0] != 0.0).any():
            raise ValueError("every phase share row must have entry 0 exactly 0")
        with np.errstate(over="ignore"):
            composed = np.add.reduce(shares, axis=0)
        if not np.isfinite(composed).all():
            raise ValueError("phase share rows must sum to finite phases")
        shares.setflags(write=False)
        object.__setattr__(self, "shares", shares)

    @property
    def n_senders(self) -> int:
        return self.shares.shape[0] + 1

    def row(self, l: int) -> np.ndarray:
        """Share row for sender l, 1-based (l = 1 .. n_senders - 1)."""
        if not 1 <= l <= self.shares.shape[0]:
            raise ValueError(f"share row {l} out of range 1..{self.shares.shape[0]}")
        return self.shares[l - 1]


def amplitude_basis_matrix(profile: AmplitudeProfile) -> np.ndarray:
    """8x8 signed layout of the magnitudes; rows are the basis vectors.

    Row k, column m is the sign table's entry times x[k ^ m]: each row pairs
    every magnitude once, with signs that cancel pairwise, so the rows are
    orthogonal for any normalized profile; tests check it over random profiles.
    """
    return _SIGNS * profile.x[_PHASE_ARGS]


def amplitude_basis(profile: AmplitudeProfile) -> BasisSet:
    """The magnitude-knowing sender's measurement basis."""
    return BasisSet(amplitude_basis_matrix(profile).astype(complex), label="amplitude")


def signed_phase_matrix(units) -> np.ndarray:
    """SIGN_PATTERN with column m scaled by the m-th unit-modulus argument.

    A stack of argument rows (..., 8) gives a stack of matrices (..., 8, 8).
    """
    units = np.asarray(units, dtype=complex)
    if units.ndim == 0 or units.shape[-1] != 8:
        raise ValueError(f"expected 8 arguments, got {units.shape[-1] if units.ndim else 1}")
    # Written so that NaN, which compares false, fails the check.
    if not np.maximum.reduce(np.abs(np.abs(units) - 1.0), axis=None) <= NORM_TOL:
        raise ValueError("arguments must have unit modulus")
    return SIGN_PATTERN * units[..., None, :]


def _phase_vectors(rows) -> np.ndarray:
    """Vectors of the eight phase bases of each of a stack of rows of eight
    phases, from one exp of the stack: [i, k, d] is vector d of row i's basis
    for announced outcome k.

    Rows are scaled by 1/(2 sqrt 2) so the basis vectors are unit length.
    The stack is C-contiguous: `take` lays the arguments out row-major, where
    `units[:, _PHASE_ARGS]` would put the row axis innermost.
    """
    units = np.exp(-1j * np.asarray(rows, dtype=float))
    return signed_phase_matrix(units.take(_PHASE_ARGS, axis=1)) * _INV_2SQRT2


def phase_bases_from_rows(rows, labels) -> tuple[np.ndarray, np.ndarray]:
    """The eight phase bases of each row of eight phases, as `_phase_vectors`
    lays them out, and their (rows, 8) Gram deviations, from one exp, one
    `signed_phase_matrix` call and one stacked Gram product. One comparison
    tests every deviation (never NaN); only a failure reads the labels, to
    raise for the first basis [i, k] in (i, k) order, labelled labels[i][k]."""
    vectors = _phase_vectors(rows)
    deviations = gram_deviation(vectors)
    failed = (deviations > NORM_TOL).reshape(-1).nonzero()[0]
    if failed.size:
        i, k = divmod(int(failed[0]), 8)
        require_orthonormal(labels[i][k], deviations[i, k].item())
    return vectors, deviations


def phase_basis_from_row(k: int, phases, label: str) -> BasisSet:
    """Phase basis for announced outcome k of a raw row of eight phases:
    entry k of the one-row case of `phase_bases_from_rows`."""
    if not 0 <= k <= 7:
        raise ValueError(f"announced outcome {k} out of range 0..7")
    return BasisSet(_phase_vectors([phases])[0, k], label=label)


def phase_basis(k: int, profile: PhaseProfile) -> BasisSet:
    """The phase-knowing sender's basis conditioned on announced outcome k."""
    return phase_basis_from_row(k, profile.delta, label=f"phase[k={k}]")


def share_basis(k: int, l: int, shares: PhaseShares) -> BasisSet:
    """Sender l's basis (1-based l) for announced outcome k, from its share row."""
    return phase_basis_from_row(k, shares.row(l), label=f"share[l={l},k={k}]")


def compose_phases(shares: PhaseShares) -> PhaseProfile:
    """Entrywise sum of the share rows: the jointly encoded phase profile."""
    return PhaseProfile(np.sum(shares.shares, axis=0))


@dataclass(frozen=True)
class OrthonormalityReport:
    max_deviation: float
    passed: bool


def validate_orthonormal(basis: BasisSet) -> OrthonormalityReport:
    """Report the basis's maximum Gram deviation, kept from its construction, against NORM_TOL."""
    return OrthonormalityReport(max_deviation=basis.deviation, passed=basis.deviation <= NORM_TOL)


def random_amplitude_profile(rng: np.random.Generator) -> AmplitudeProfile:
    """Uniform draw on the positive orthant of the 7-sphere."""
    v = rng.standard_normal(8)
    return AmplitudeProfile(np.abs(v) / np.sqrt(v.dot(v)))  # np.linalg.norm(v)'s bits


def random_phase_profile(rng: np.random.Generator) -> PhaseProfile:
    """Phases uniform on [0, 2*pi), entry 0 forced to 0."""
    delta = rng.uniform(0.0, 2.0 * np.pi, 8)
    delta[0] = 0.0
    return PhaseProfile(delta)


def random_phase_shares(rng: np.random.Generator, n_senders: int) -> PhaseShares:
    """One uniform share row per phase-knowing sender (n_senders - 1 rows)."""
    if n_senders < 2:
        raise ValueError("need at least 2 senders")
    rows = rng.uniform(0.0, 2.0 * np.pi, (n_senders - 1, 8))
    rows[:, 0] = 0.0
    return PhaseShares(rows)


def random_inputs(n_senders: int, seed: int) -> tuple[AmplitudeProfile, PhaseProfile | PhaseShares]:
    """Seeded profile for an n-sender run: the magnitudes, then the phase
    profile (two senders) or one share row per phase sender (more)."""
    rng = np.random.default_rng(seed)
    x = random_amplitude_profile(rng)
    if n_senders == 2:
        return x, random_phase_profile(rng)
    return x, random_phase_shares(rng, n_senders)
