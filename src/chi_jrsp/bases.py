"""Measurement-basis construction for the joint preparation protocols.

The target family is parameterized by eight real magnitudes x_j and eight
phases. The magnitude-knowing sender measures in a basis built from an 8x8
signed layout of the x_j; each phase-knowing sender measures, conditioned on
the announced outcome k, in a basis whose entries are unit phases arranged
under a fixed 8x8 sign pattern. Both layouts are transcribed literally and
pinned by tests; orthonormality is a consequence of the sign structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# gram_deviation stays importable here: perfbench/tracer.py wraps it.
from .qstate import NORM_TOL, BasisSet, gram_deviation  # noqa: F401

_INV_2SQRT2 = 1.0 / (2.0 * np.sqrt(2.0))

# Sign pattern shared by all phase bases. Row p, column m carries the sign
# applied to the m-th unit-phase argument in basis vector p. Rows are
# pairwise orthogonal as +-1 vectors, which makes every phase basis
# orthonormal after the 1/(2 sqrt 2) row scaling.
SIGN_PATTERN = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, -1, 1, -1, 1, -1, 1, -1],
        [1, -1, -1, 1, -1, 1, 1, -1],
        [1, 1, -1, -1, 1, 1, -1, -1],
        [1, -1, 1, -1, -1, 1, -1, 1],
        [1, 1, -1, -1, -1, -1, 1, 1],
        [1, -1, -1, 1, 1, -1, -1, 1],
        [1, 1, 1, 1, -1, -1, -1, -1],
    ],
    dtype=float,
)

# Which unit phase r_i goes into argument slot m of the basis for announced
# outcome k; subscript 0 stands for the constant 1. The table equals
# PHASE_ARG_INDEX[k][m] == k ^ m, a property pinned by tests.
PHASE_ARG_INDEX = (
    (0, 1, 2, 3, 4, 5, 6, 7),
    (1, 0, 3, 2, 5, 4, 7, 6),
    (2, 3, 0, 1, 6, 7, 4, 5),
    (3, 2, 1, 0, 7, 6, 5, 4),
    (4, 5, 6, 7, 0, 1, 2, 3),
    (5, 4, 7, 6, 1, 0, 3, 2),
    (6, 7, 4, 5, 2, 3, 0, 1),
    (7, 6, 5, 4, 3, 2, 1, 0),
)
_PHASE_ARGS = np.array(PHASE_ARG_INDEX)


@dataclass(frozen=True)
class AmplitudeProfile:
    """Eight real magnitudes with sum of squares 1, judged by the Gram check
    of the amplitude basis they build (its diagonal is the sum of squares)."""

    x: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float).reshape(-1)
        if x.size != 8:
            raise ValueError(f"amplitude profile needs 8 entries, got {x.size}")
        if not np.all(np.isfinite(x)):
            raise ValueError("amplitude profile entries must be finite")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        try:
            amplitude_basis(self)
        except ValueError as exc:
            raise ValueError(f"amplitude profile not normalized: {exc}") from None


@dataclass(frozen=True)
class PhaseProfile:
    """Eight phases in radians; entry 0 must be exactly 0."""

    delta: np.ndarray

    def __post_init__(self):
        delta = np.array(self.delta, dtype=float).reshape(-1)
        if delta.size != 8:
            raise ValueError(f"phase profile needs 8 entries, got {delta.size}")
        if not np.all(np.isfinite(delta)):
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
        if not np.all(np.isfinite(shares)):
            raise ValueError("phase share entries must be finite")
        if np.any(shares[:, 0] != 0.0):
            raise ValueError("every phase share row must have entry 0 exactly 0")
        with np.errstate(over="ignore"):
            composed = np.sum(shares, axis=0)
        if not np.all(np.isfinite(composed)):
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

    Orthogonality of the rows for any normalized profile follows from the
    layout itself (each row pairs every magnitude once, with signs that
    cancel pairwise); tests check it over random profiles.
    """
    x0, x1, x2, x3, x4, x5, x6, x7 = profile.x
    return np.array(
        [
            [x0, x1, x2, x3, x4, x5, x6, x7],
            [x1, -x0, x3, -x2, x5, -x4, x7, -x6],
            [x2, -x3, -x0, x1, -x6, x7, x4, -x5],
            [x3, x2, -x1, -x0, x7, x6, -x5, -x4],
            [x4, -x5, x6, -x7, -x0, x1, -x2, x3],
            [x5, x4, -x7, -x6, -x1, -x0, x3, x2],
            [x6, -x7, -x4, x5, x2, -x3, -x0, x1],
            [x7, x6, x5, x4, -x3, -x2, -x1, -x0],
        ]
    )


def amplitude_basis(profile: AmplitudeProfile) -> BasisSet:
    """The magnitude-knowing sender's measurement basis."""
    return BasisSet(amplitude_basis_matrix(profile).astype(complex), label="amplitude")


def signed_phase_matrix(units) -> np.ndarray:
    """SIGN_PATTERN with column m scaled by the m-th unit-modulus argument.

    A stack of argument rows (..., 8) gives a stack of matrices (..., 8, 8).
    """
    units = np.atleast_1d(np.asarray(units, dtype=complex))
    if units.shape[-1] != 8:
        raise ValueError(f"expected 8 arguments, got {units.shape[-1]}")
    # Written so that NaN, which compares false, fails the check.
    if not np.max(np.abs(np.abs(units) - 1.0)) <= NORM_TOL:
        raise ValueError("arguments must have unit modulus")
    return SIGN_PATTERN * units[..., None, :]


def _phase_vectors(rows) -> np.ndarray:
    """Vectors of the eight phase bases of each of a stack of rows of eight
    phases, from one exp of the stack: [i, k, d] is vector d of row i's basis
    for announced outcome k.

    Rows are scaled by 1/(2 sqrt 2) so the basis vectors are unit length.
    """
    units = np.exp(-1j * np.asarray(rows, dtype=float))
    return signed_phase_matrix(units[:, _PHASE_ARGS]) * _INV_2SQRT2


PHASE_LABELS = tuple(f"phase[k={k}]" for k in range(8))


def share_labels(l: int) -> tuple[str, ...]:
    """Labels of sender l's eight share bases, entry k for announced outcome k."""
    return tuple(f"share[l={l},k={k}]" for k in range(8))


def phase_bases_from_rows(rows, labels) -> list[list[BasisSet]]:
    """The eight phase bases of each row of eight phases: entry [i][k] is
    row i's basis for announced outcome k, labelled labels[i][k].

    Every row shares one exp, one `signed_phase_matrix` call and one stacked
    Gram product, which raises for the first basis in (i, k) order that is
    not orthonormal.
    """
    vectors = _phase_vectors(rows)
    flat = BasisSet.stack(vectors.reshape(-1, 8, 8), [label for row in labels for label in row])
    return [flat[i : i + 8] for i in range(0, len(flat), 8)]


def phase_basis_from_row(k: int, phases, label: str) -> BasisSet:
    """Phase basis for announced outcome k of a raw row of eight phases:
    entry k of the one-row case of `phase_bases_from_rows`."""
    if not 0 <= k <= 7:
        raise ValueError(f"announced outcome {k} out of range 0..7")
    return BasisSet(_phase_vectors([phases])[0, k], label=label)


def phase_basis(k: int, profile: PhaseProfile) -> BasisSet:
    """The phase-knowing sender's basis conditioned on announced outcome k."""
    return phase_basis_from_row(k, profile.delta, label=f"phase[k={k}]")


def phase_bases(profile: PhaseProfile) -> list[BasisSet]:
    """`phase_basis(k, profile)` for k = 0..7, from one stacked build."""
    return phase_bases_from_rows([profile.delta], [PHASE_LABELS])[0]


def share_basis(k: int, l: int, shares: PhaseShares) -> BasisSet:
    """Sender l's basis (1-based l) for announced outcome k, from its share row."""
    return phase_basis_from_row(k, shares.row(l), label=f"share[l={l},k={k}]")


def share_bases(l: int, shares: PhaseShares) -> list[BasisSet]:
    """`share_basis(k, l, shares)` for k = 0..7, from one stacked build."""
    return phase_bases_from_rows([shares.row(l)], [share_labels(l)])[0]


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
    return AmplitudeProfile(np.abs(v) / np.linalg.norm(v))


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
