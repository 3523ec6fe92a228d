"""Markov operators: positive/completely positive unital maps.

A MarkovOperator stores a dense D x D superoperator acting on vectorized
elements, plus where it came from (explicit matrix, Kraus family on the
block-diagonal embedding, or a classical stochastic matrix) and what is
known about its positivity. Construction always enforces unitality and
Hermiticity preservation; positivity claims stronger than "declared" are
verified, never taken on faith.

Complete positivity is tested on the extension X -> embed(T(compress(X)))
of T to the full matrix algebra M_N: compression and embedding are both CP,
so the extension is CP exactly when T is. Its Choi matrix is, up to a
permutation, a direct sum with one block per pair of algebra blocks, and
the test reads those blocks from the superoperator directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    Functional,
    _adjoints,
    _side_classes,
    functional_norm,
    hermitian_basis,
    jordan_decompose,
    tensor_permutation,
    transpose_permutation,
)
from .config import DEFAULT, Config
from .errors import (
    NotCompletelyPositive,
    NotPositive,
    NotStochastic,
    NotUnital,
    NotHermitianPreserving,
    NumericalDegeneracy,
    RequiresCP,
    ShapeMismatch,
    SingularNormalization,
)

PROVENANCES = ("explicit", "kraus", "stochastic")
CLAIMS = ("verified_cp", "sampled_positive", "declared")


@dataclass(frozen=True, eq=False)
class MarkovOperator:
    """Unital, Hermiticity-preserving superoperator with provenance."""

    shape: AlgebraShape
    matrix: np.ndarray = field(repr=False)
    provenance: str = "explicit"
    positivity_claim: str = "declared"
    kraus: tuple[np.ndarray, ...] | None = field(default=None, repr=False)
    stochastic: np.ndarray | None = field(default=None, repr=False)
    # (S, R) for S (x) R made by `tensor`, whose spectral data and orbit
    # steps then run on the factors; never serialized
    factors: tuple[MarkovOperator, MarkovOperator] | None = field(
        default=None, repr=False, compare=False)
    # per-Config memo of spectral._spectral_data; valid because the matrix
    # is frozen
    _spectral_memo: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        if x.shape != self.shape:
            raise ShapeMismatch(f"{self.shape} vs {x.shape}")
        return AlgebraElement.from_vec(self.shape, self.matrix @ x.vec())

    @property
    def dim(self) -> int:
        return self.shape.dim

    def is_cp_verified(self) -> bool:
        return self.positivity_claim == "verified_cp"


# ---------------------------------------------------------------------------
# embedding helpers
# ---------------------------------------------------------------------------

def embedding_matrix(shape: AlgebraShape) -> np.ndarray:
    """N^2 x D zero/one matrix E with vec(embed(x)) = E @ x.vec().

    embed places the blocks on the diagonal of one N x N matrix; its
    transpose is the compression back onto the blocks.
    """
    N = shape.matrix_dim
    E = np.zeros((N * N, shape.dim))
    pos = 0
    col = 0
    for n in shape.blocks:
        for j in range(n):          # column within block
            for i in range(n):      # row within block
                r, c = pos + i, pos + j
                E[r + N * c, col] = 1.0
                col += 1
        pos += n
    return E


def _unit_vec(shape: AlgebraShape) -> np.ndarray:
    return AlgebraElement.identity(shape).vec()


def _validate_construction(shape: AlgebraShape, matrix: np.ndarray,
                           cfg: Config) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    D = shape.dim
    if matrix.shape != (D, D):
        raise ShapeMismatch(f"superoperator must be {D}x{D}, got {matrix.shape}")
    one = _unit_vec(shape)
    unital_residual = float(np.max(np.abs(matrix @ one - one)))
    if unital_residual > cfg.tol_unital:
        raise NotUnital(f"T(1) deviates from 1 by {unital_residual:.2e}")
    # T maps Hermitian to Hermitian iff conj(M) = K M K with K the blockwise
    # transpose permutation (from vec(x*) = K conj(vec x)).
    k = transpose_permutation(shape)
    herm_residual = float(np.max(np.abs(np.conj(matrix) - matrix[np.ix_(k, k)])))
    if herm_residual > cfg.tol_hermitian:
        raise NotHermitianPreserving(
            f"Hermiticity-preservation residual {herm_residual:.2e}")
    matrix = matrix.copy()
    matrix.setflags(write=False)
    return matrix


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def from_superoperator(shape: AlgebraShape, matrix: np.ndarray,
                       positivity_claim: str = "declared",
                       config: Config = DEFAULT) -> MarkovOperator:
    """Wrap an explicit superoperator matrix.

    The positivity claim is validated, not recorded blindly: "verified_cp"
    runs the Choi test, "sampled_positive" runs the sampling check with the
    configured trial count, "declared" is accepted as stated.
    """
    if positivity_claim not in CLAIMS:
        raise ValueError(f"positivity_claim must be one of {CLAIMS}")
    matrix = _validate_construction(shape, matrix, config)
    op = MarkovOperator(shape, matrix, "explicit", positivity_claim)
    if positivity_claim == "verified_cp":
        verdict = check_cp(op, config)
        if not verdict.cp:
            raise NotCompletelyPositive(
                f"min Choi eigenvalue {verdict.min_choi_eigenvalue:.3e}")
    elif positivity_claim == "sampled_positive":
        result = check_positive_sampled(op, config.positivity_trials,
                                        seed=config.seed, config=config)
        if not result.passed:
            raise NotPositive("sampled positivity check failed")
    return op


def from_kraus(shape: AlgebraShape, kraus_list: Sequence[np.ndarray],
               config: Config = DEFAULT) -> MarkovOperator:
    """Channel x -> compress(sum_k A_k embed(x) A_k*) from Kraus matrices on M_N.

    Requires sum_k A_k A_k* = identity on the embedding (unitality).
    The result is completely positive by construction.
    """
    N = shape.matrix_dim
    ops = [np.asarray(a, dtype=complex) for a in kraus_list]
    if not ops:
        raise ValueError("at least one Kraus operator required")
    for a in ops:
        if a.shape != (N, N):
            raise ShapeMismatch(f"Kraus operators must be {N}x{N}, got {a.shape}")
    total = sum(a @ a.conj().T for a in ops)
    residual = float(np.max(np.abs(total - np.eye(N))))
    if residual > config.tol_unital:
        raise NotUnital(f"sum A_k A_k* deviates from identity by {residual:.2e}")
    E = embedding_matrix(shape)
    lifted = sum(np.kron(a.conj(), a) for a in ops)
    matrix = E.T @ lifted @ E
    matrix = _validate_construction(shape, matrix, config)
    frozen = []
    for a in ops:
        a = a.copy()
        a.setflags(write=False)
        frozen.append(a)
    return MarkovOperator(shape, matrix, "kraus", "verified_cp",
                          kraus=tuple(frozen))


def from_stochastic(P: np.ndarray, config: Config = DEFAULT) -> MarkovOperator:
    """Classical channel (Tx)_i = sum_j P_ij x_j on the shape (1,...,1).

    Entrywise-nonnegative stochastic maps on commutative algebras are
    automatically completely positive.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise NotStochastic(f"square matrix required, got shape {P.shape}")
    d = P.shape[0]
    if np.min(P) < -config.tol_stochastic_entry:
        i, j = np.unravel_index(np.argmin(P), P.shape)
        raise NotStochastic(f"entry ({i},{j}) is negative: {P[i, j]:.3e}")
    sums = P.sum(axis=1)
    bad = np.argmax(np.abs(sums - 1.0))
    if abs(sums[bad] - 1.0) > config.tol_stochastic_row:
        raise NotStochastic(f"row {bad} sums to {float(sums[bad])!r}")
    shape = AlgebraShape([1] * d)
    matrix = _validate_construction(shape, P.astype(complex), config)
    Pfrozen = P.copy()
    Pfrozen.setflags(write=False)
    return MarkovOperator(shape, matrix, "stochastic", "verified_cp",
                          stochastic=Pfrozen)


def identity_channel(shape: AlgebraShape) -> MarkovOperator:
    m = np.eye(shape.dim, dtype=complex)
    m.setflags(write=False)
    return MarkovOperator(shape, m, "explicit", "verified_cp")


# ---------------------------------------------------------------------------
# positivity checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CpVerdict:
    cp: bool
    min_choi_eigenvalue: float


def choi_matrix(op: MarkovOperator) -> np.ndarray:
    """Choi matrix of the extension of T to the embedding algebra M_N, as
    one dense N^2 x N^2 matrix: the reference for the blockwise ``check_cp``."""
    shape = op.shape
    N = shape.matrix_dim
    E = embedding_matrix(shape)
    lifted = E @ op.matrix @ E.T          # superoperator of embed . T . compress
    A = lifted.reshape(N, N, N, N)        # A[j,i,l,k] = lifted[i+Nj, k+Nl]
    return A.transpose(3, 1, 2, 0).reshape(N * N, N * N)


def check_cp(op: MarkovOperator, config: Config = DEFAULT) -> CpVerdict:
    """Complete positivity via the minimal Choi eigenvalue.

    ``choi_matrix`` is, up to a permutation, the direct sum over pairs
    (input block b, output block c) of the Choi matrices C_bc, of side
    n_b * n_c, of the maps M_{n_b} -> M_{n_c} that T restricts to:
    C_bc[(p, r), (q, s)] = T(e_pq)_c[r, s], read from the (c, b) submatrix
    of M. The minimum is taken over these blocks, with one batched
    eigensolve per pair of block sides (real parts for 1x1 blocks).
    """
    lo = np.inf
    classes = _side_classes(op.shape)
    for n_c, out_idx in classes:
        for n_b, in_idx in classes:
            # g[j, i, r, s, p, q] = T(e_pq)[r, s] from input block i of side
            # n_b to output block j of side n_c
            g = op.matrix[out_idx[:, None, :, :, None, None],
                          in_idx[None, :, None, None, :, :]]
            side = n_b * n_c
            c = g.transpose(0, 1, 4, 2, 5, 3).reshape(-1, side, side)
            w = c.real if side == 1 else np.linalg.eigvalsh(
                (c + _adjoints(c)) / 2)
            lo = min(lo, float(w.min()))
    return CpVerdict(cp=lo >= -config.tol_choi, min_choi_eigenvalue=lo)


@dataclass(frozen=True)
class PositivitySample:
    passed: bool
    witness: AlgebraElement | None = None


def check_positive_sampled(op: MarkovOperator, trials: int, seed: int = 0,
                           config: Config = DEFAULT) -> PositivitySample:
    """Apply T to random PSD elements; fail on any negative output eigenvalue."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        mats = []
        for n in op.shape.blocks:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = g @ g.conj().T
            top = np.linalg.eigvalsh(m)[-1]
            mats.append(m / max(top, 1e-30))
        x = AlgebraElement(op.shape, mats)
        y = op(x)
        for b in y.blocks:
            if np.linalg.eigvalsh((b + b.conj().T) / 2)[0] < -config.tol_positive_sample:
                return PositivitySample(passed=False, witness=x)
    return PositivitySample(passed=True)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DualMap:
    """The map psi -> psi . T under the bilinear trace pairing.

    ``matrix`` acts on functional vectorizations (stacked sigma blocks):
    it is K M^T K with K the blockwise transpose permutation.
    """

    shape: AlgebraShape
    matrix: np.ndarray = field(repr=False)

    def __call__(self, psi: Functional) -> Functional:
        if psi.shape != self.shape:
            raise ShapeMismatch(f"{self.shape} vs {psi.shape}")
        return Functional.from_vec(self.shape, self.matrix @ psi.vec())


def dual(op: MarkovOperator) -> DualMap:
    k = transpose_permutation(op.shape)
    m = op.matrix.T[np.ix_(k, k)]
    m = np.ascontiguousarray(m)
    m.setflags(write=False)
    return DualMap(op.shape, m)


# ---------------------------------------------------------------------------
# invariant states
# ---------------------------------------------------------------------------

def canonical_invariant_state(op: MarkovOperator, config: Config = DEFAULT) -> Functional:
    """The invariant state obtained by Cesàro-averaging the maximally mixed one.

    Coincides with the unique invariant state when there is only one; always
    gives a deterministic, basis-independent choice when there are several.
    Reads the Cesàro projector P of the operator's memoized spectral data
    (raising DefectivePeripheral for a Jordan block at 1): the dual matrix is
    K M^T K with K the transpose permutation (an involution), so the dual's
    projector is K P^T K, and the averaged state is (P^T @ u[k])[k].
    """
    from .spectral import _spectral_data  # local import, no cycle at module load
    k = transpose_permutation(op.shape)
    u = Functional.uniform_state(op.shape).vec()
    v = (_spectral_data(op, config).cesaro().T @ u[k])[k]
    psi = Functional.from_vec(op.shape, v)
    # invariance forces psi(1) real; normalize trace to one
    total = sum(np.trace(b) for b in psi.blocks)
    if abs(total) < 1e-12:
        raise SingularNormalization("averaged state has vanishing trace")
    return psi * (1.0 / total)


def _candidate_states(op: MarkovOperator, null: np.ndarray,
                      config: Config) -> Iterator[Functional]:
    """The canonical state, then the normalized positive Jordan parts of the
    Hermitian parts of each fixed functional, produced on demand."""
    yield canonical_invariant_state(op, config)
    for idx in range(null.shape[1]):
        psi = Functional.from_vec(op.shape, null[:, idx])
        for h in psi.hermitian_parts():
            nrm = functional_norm(h)
            if nrm < 1e-12:
                continue
            hp, hm = jordan_decompose(h, tol=1e-8)
            for part in (hp, hm):
                pn = functional_norm(part)
                if pn > 1e-10:
                    yield part * (1.0 / pn)


def invariant_states(op: MarkovOperator, config: Config = DEFAULT) -> list[Functional]:
    """States spanning the fixed states of the dual map.

    The fixed functionals at eigenvalue 1 are the null space of
    (dual - I) = K (M - I)^T K, read from the memoized SVD of M - I as
    conj(U[:, s <= cut])[k] with the cut at ``tol_invariant_state``; their
    Hermitian parts are again fixed, and the positive Jordan parts of fixed
    Hermitian functionals are fixed for positive unital maps, which turns a
    fixed-space basis into a spanning family of invariant states. Returns
    exactly one state iff the fixed space is one-dimensional. Singular
    values within a factor 10 of the cut raise NumericalDegeneracy.
    """
    from .spectral import _cut, _spectral_data
    data = _spectral_data(op, config)
    s = data.defect_s
    cut = _cut(s, config.tol_invariant_state)
    ambiguous = [x for x in s if cut / 10.0 < x < cut * 10.0]
    if ambiguous:
        raise NumericalDegeneracy(
            f"singular values {ambiguous} straddle the rank cut {cut:.1e}")
    null = np.conj(data.defect_u[:, s <= cut])[transpose_permutation(op.shape)]
    k = null.shape[1]
    if k == 0:
        raise NumericalDegeneracy("no fixed functional found for a unital map")
    dm = dual(op).matrix

    # keep candidates that really are invariant states, pruned to an
    # independent set spanning the fixed Hermitian functionals; candidates
    # past the k-th state are never built
    states: list[Functional] = []
    vecs: list[np.ndarray] = []
    for psi in _candidate_states(op, null, config):
        if not psi.is_state(tol=1e-8):
            continue
        if functional_norm(Functional.from_vec(op.shape, dm @ psi.vec()) - psi) \
                > config.tol_invariant_state * 10:
            continue
        v = psi.vec()
        if vecs:
            basis = np.column_stack(vecs)
            resid = v - basis @ np.linalg.lstsq(basis, v, rcond=None)[0]
            if np.linalg.norm(resid) < 1e-9:
                continue
        states.append(psi)
        vecs.append(v)
        if len(states) == k:
            break
    if not states:
        raise NumericalDegeneracy("no invariant state could be certified")
    return states


# ---------------------------------------------------------------------------
# composition, powers, tensors
# ---------------------------------------------------------------------------

def compose(op: MarkovOperator, other: MarkovOperator) -> MarkovOperator:
    """The composition x -> op(other(x))."""
    if op.shape != other.shape:
        raise ShapeMismatch(f"{op.shape} vs {other.shape}")
    m = op.matrix @ other.matrix
    m.setflags(write=False)
    claim = "verified_cp" if (op.is_cp_verified() and other.is_cp_verified()) \
        else "declared"
    return MarkovOperator(op.shape, m, "explicit", claim)


def power(op: MarkovOperator, n: int) -> MarkovOperator:
    if n < 0:
        raise ValueError("nonnegative powers only")
    m = np.linalg.matrix_power(op.matrix, n)
    m.setflags(write=False)
    claim = op.positivity_claim if n > 0 else "verified_cp"
    return MarkovOperator(op.shape, m, "explicit", claim)


def tensor(op: MarkovOperator, other: MarkovOperator) -> MarkovOperator:
    """Tensor-product channel on the tensor algebra; requires verified CP.

    The result keeps ``op`` and ``other`` as its ``factors``: ``orbit``
    steps its orbits as X -> A X B^T on the factor matrices, and
    unless a factor is itself such a product, its spectral data is built
    from theirs (only the SVD of M - I runs on the product's matrix). The
    dense matrix is still formed.
    """
    if not (op.is_cp_verified() and other.is_cp_verified()):
        raise RequiresCP("tensor products are formed for verified CP operators only")
    shape = op.shape.tensor(other.shape)
    perm = tensor_permutation(op.shape, other.shape)
    big = np.kron(op.matrix, other.matrix)
    m = big[np.ix_(perm, perm)]     # conjugate by the vec-ordering permutation
    m = np.ascontiguousarray(m)
    m.setflags(write=False)
    return MarkovOperator(shape, m, "explicit", "verified_cp",
                          factors=(op, other))


# ---------------------------------------------------------------------------
# random ensemble
# ---------------------------------------------------------------------------

def random_unital_cp(shape: AlgebraShape, kraus_count: int,
                     seed: int | np.random.Generator,
                     config: Config = DEFAULT) -> MarkovOperator:
    """Seeded random unital CP channel.

    Draws complex Gaussian Kraus matrices on the embedding and renormalizes
    them by the inverse square root of their Gram sum, so the channel is
    exactly unital. kraus_count = 1 yields a unitary conjugation.
    """
    if kraus_count < 1:
        raise ValueError("kraus_count must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    N = shape.matrix_dim
    for _ in range(10):
        ops = [(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
               / np.sqrt(2.0) for _ in range(kraus_count)]
        gram = sum(a @ a.conj().T for a in ops)
        w, u = np.linalg.eigh(gram)
        if w[0] < 1e-12:
            continue
        inv_sqrt = (u * (1.0 / np.sqrt(w))) @ u.conj().T
        return from_kraus(shape, [inv_sqrt @ a for a in ops], config)
    raise SingularNormalization(
        f"Gram matrix stayed singular after 10 resamples (N={N}, k={kraus_count})")
