"""Desk-scale model systems: a rank-one stochastic map, rational rotations,
and two-site-marginal quantum Markov chains.

The rotation is deliberately kept commutative (a permutation of point
evaluations) and the chain states are realized as densities on one block of
size 2^L, so everything stays within exact linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraShape, Functional, functional_norm
from .channel import MarkovOperator, dual, from_kraus, from_stochastic
from .config import Config, DEFAULT
from .errors import (
    InvalidStochastic,
    NotCoprime,
    NotInvariant,
    ShapeMismatch,
    ValidationError,
)
from .mixing import DynamicalSystem

__all__ = [
    "DistinctStatesReport",
    "RotationWitness",
    "compatibility_residual",
    "example1",
    "example2",
    "example3_channels",
    "example3_distinct_states",
    "markov_state",
]

# The chain-state contracts promise this accuracy for the construction
# itself, independently of the user-facing tolerance configuration.
_CHAIN_TOL = 1e-10

# the largest chain volume: the volume-L state is a 2^L x 2^L density
_MAX_VOLUME = 6


def example1(d: int, config: Config = DEFAULT) -> DynamicalSystem:
    """Identical-rows stochastic map on d points.

    The row is (1/2, 1/4, ..., 2^-(d-1), 2^-(d-1)): a geometric profile
    with the tail folded into the last entry so it sums to one. Identical
    rows make T(x) = phi(x) 1 in a single step, so every mixing property
    holds at once.
    """
    if d < 2:
        raise ValidationError(f"need at least two points, got d = {d}")
    row = np.array([2.0 ** -(j + 1) for j in range(d - 1)] + [2.0 ** -(d - 1)])
    P = np.tile(row, (d, 1))
    op = from_stochastic(P, config)
    phi = Functional.from_vec(op.shape, row.astype(complex))
    return DynamicalSystem(op, phi, config)


@dataclass(frozen=True, eq=False)
class RotationWitness:
    """Character eigenfunctional of a rotation with its verified relation.

    ``functional`` composed with the rotation equals ``eigenvalue`` times
    itself; ``residual`` is the trace-norm defect of that identity.
    """

    functional: Functional
    eigenvalue: complex
    residual: float


def example2(d: int, k: int,
             config: Config = DEFAULT) -> tuple[DynamicalSystem, RotationWitness]:
    """Rotation by k steps on d points, with its peripheral eigenfunctional.

    (Tf)_j = f_{j+k mod d}; coprimality makes the orbit a single cycle, so
    the invariant state is unique while the full set of d-th roots of unity
    sits in the spectrum. The witness h(f) = (1/d) sum omega^j f_j obeys
    h . T = omega^-k h and rules out strict weak mixing explicitly.
    """
    if d < 2:
        raise ValidationError(f"need at least two points, got d = {d}")
    k = k % d
    if math.gcd(k, d) != 1:
        raise NotCoprime(f"rotation step {k} shares a factor with {d}")
    P = np.zeros((d, d))
    for j in range(d):
        P[j, (j + k) % d] = 1.0
    op = from_stochastic(P, config)
    phi = Functional.from_vec(op.shape, np.full(d, 1.0 / d, dtype=complex))
    system = DynamicalSystem(op, phi, config)

    omega = np.exp(2j * np.pi / d)
    h = Functional.from_vec(op.shape, omega ** np.arange(d) / d)
    alpha = complex(omega ** (-k))
    residual = functional_norm(dual(op)(h) - alpha * h)
    return system, RotationWitness(h, alpha, float(residual))


def _check_distribution(v: np.ndarray, label: str) -> np.ndarray:
    if np.min(v) <= 0.0:
        raise InvalidStochastic(f"{label} must be entrywise positive, got {v}")
    if abs(float(np.sum(v)) - 1.0) > 1e-12:
        raise InvalidStochastic(f"{label} must sum to 1, got {np.sum(v)!r}")
    return v


def example3_channels(P, q, config: Config = DEFAULT
                      ) -> tuple[MarkovOperator, MarkovOperator, Functional, Functional]:
    """Two transfer operators on M_2 and their matching invariant states.

    K1 keeps the diagonal and pushes it through the transition matrix P
    (annihilating off-diagonal entries); K2 replaces the input by its
    q-weighted diagonal mean times the identity. Kraus families: sqrt(p_ij)
    E_ij for K1 and sqrt(q_j) E_ij for K2. rho1 solves pi P = pi; rho2 is
    diag(q).
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (2, 2):
        raise InvalidStochastic(f"P must be 2x2, got {P.shape}")
    for i in (0, 1):
        _check_distribution(P[i], f"row {i} of P")
    q = _check_distribution(np.asarray(q, dtype=float).ravel(), "q")
    if q.size != 2:
        raise InvalidStochastic(f"q must have two entries, got {q.size}")

    shape = AlgebraShape([2])
    e = [[np.zeros((2, 2)) for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            e[i][j][i, j] = 1.0
    k1 = from_kraus(shape, [np.sqrt(P[i, j]) * e[i][j]
                            for i in range(2) for j in range(2)], config)
    k2 = from_kraus(shape, [np.sqrt(q[j]) * e[i][j]
                            for i in range(2) for j in range(2)], config)

    w, v = np.linalg.eig(P.T)
    pi_vec = np.real(v[:, np.argmin(np.abs(w - 1.0))])
    pi_vec = pi_vec / pi_vec.sum()
    rho1 = Functional(shape, [np.diag(pi_vec).astype(complex)])
    rho2 = Functional(shape, [np.diag(q).astype(complex)])

    for op, rho, label in ((k1, rho1, "rho1"), (k2, rho2, "rho2")):
        drift = functional_norm(dual(op)(rho) - rho)
        if drift > _CHAIN_TOL:
            raise NotInvariant(f"{label} drifts by {drift:.3e} under its channel")
    return k1, k2, rho1, rho2


def _site_code_digits(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column bit patterns for every base-4 site-code tuple of length L."""
    codes = (np.arange(4 ** L)[:, None] //
             4 ** np.arange(L - 1, -1, -1)[None, :]) % 4
    weights = 2 ** np.arange(L - 1, -1, -1)
    rows = (codes >> 1) @ weights
    cols = (codes & 1) @ weights
    return rows, cols


def markov_state(op: MarkovOperator, rho0: Functional, L: int,
                 config: Config = DEFAULT) -> Functional:
    """Finite-volume chain state phi(a_1 (x) ... (x) a_L) built by nesting
    the transfer operator: phi0(a_1 K(a_2 K(... K(a_L)...))).

    Realized as a density on the single block of size 2^L, evaluated on the
    full matrix-unit product basis. The result is checked to be an actual
    state (Hermitian, positive semidefinite, unit trace) before returning.
    """
    if op.shape != AlgebraShape([2]) or rho0.shape != op.shape:
        raise ShapeMismatch("chain states are built from a channel on one qubit")
    if not 1 <= L <= _MAX_VOLUME:
        raise ValidationError(f"volume L = {L} outside 1..{_MAX_VOLUME}")
    drift = functional_norm(dual(op)(rho0) - rho0)
    if drift > config.tol_invariant_state:
        raise NotInvariant(f"the single-site state drifts by {drift:.3e}")

    units = np.zeros((4, 2, 2), dtype=complex)
    for c in range(4):
        units[c, c >> 1, c & 1] = 1.0

    # Suffix chains a_i K(a_{i+1} K(...)), grown from the right one site at
    # a time over all matrix-unit choices; site codes are base-4 digits,
    # leftmost site most significant, matching the Kronecker layout.
    mat = op.matrix
    w = units.copy()
    for _ in range(L - 1):
        vecs = w.transpose(0, 2, 1).reshape(-1, 4).T
        kw = (mat @ vecs).T.reshape(-1, 2, 2).transpose(0, 2, 1)
        w = np.einsum("cij,mjk->cmik", units, kw).reshape(-1, 2, 2)
    sigma0 = rho0.blocks[0]
    vals = np.einsum("ij,fji->f", sigma0, w)

    n = 2 ** L
    rows, cols = _site_code_digits(L)
    sigma = np.zeros((n, n), dtype=complex)
    sigma[cols, rows] = vals        # tr(sigma E_ab) = sigma[b, a]

    herm_defect = float(np.max(np.abs(sigma - sigma.conj().T)))
    trace_defect = abs(np.trace(sigma).real - 1.0)
    sigma = (sigma + sigma.conj().T) / 2
    min_eig = float(np.linalg.eigvalsh(sigma)[0])
    if herm_defect > _CHAIN_TOL or trace_defect > _CHAIN_TOL or min_eig < -_CHAIN_TOL:
        raise ValidationError(
            f"chain construction left a non-state: hermitian defect "
            f"{herm_defect:.2e}, trace defect {trace_defect:.2e}, "
            f"min eigenvalue {min_eig:.2e}")
    return Functional(AlgebraShape([n]), [sigma])


def compatibility_residual(op: MarkovOperator, rho0: Functional, L: int,
                           config: Config = DEFAULT) -> float:
    """Worst marginal defect between volumes L and L-1.

    Tracing the volume-L state over its last site must reproduce the
    volume-(L-1) state (the transfer operator is unital), and tracing over
    the first site must as well (the single-site state is invariant). Both
    residuals are measured in trace norm; the larger one is returned.
    """
    if L < 2:
        raise ValidationError("marginal comparison needs L >= 2")
    big = markov_state(op, rho0, L, config)
    small = markov_state(op, rho0, L - 1, config)
    half = 2 ** (L - 1)
    sig = big.blocks[0].reshape(half, 2, half, 2)
    last = np.einsum("aibi->ab", sig)
    sig = big.blocks[0].reshape(2, half, 2, half)
    first = np.einsum("iaib->ab", sig)
    shape = small.shape
    return max(
        functional_norm(Functional(shape, [last]) - small),
        functional_norm(Functional(shape, [first]) - small),
    )


@dataclass(frozen=True, eq=False)
class DistinctStatesReport:
    """Two chain states over the same volume and their trace-norm distance."""

    volume: int
    distance: float
    state_one: Functional
    state_two: Functional


def example3_distinct_states(P, q, L: int,
                             config: Config = DEFAULT) -> DistinctStatesReport:
    """Build the two finite-volume chain states and measure their distance.

    A strictly positive gap exhibits two distinct globally consistent
    states over the same chain, the finite-volume face of non-unique
    invariant states for the shift.
    """
    k1, k2, rho1, rho2 = example3_channels(P, q, config)
    phi1 = markov_state(k1, rho1, L, config)
    phi2 = markov_state(k2, rho2, L, config)
    return DistinctStatesReport(L, float(functional_norm(phi1 - phi2)),
                                phi1, phi2)
