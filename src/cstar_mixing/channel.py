"""Markov operators: positive/completely positive unital maps.

A MarkovOperator stores a dense D x D superoperator acting on vectorized
elements (a tensor product forms it only when read), plus where it came
from (explicit matrix, Kraus family on the block-diagonal embedding, or a
classical stochastic matrix) and what is known about its positivity.
Construction always enforces unitality and Hermiticity preservation;
positivity claims stronger than "declared" are verified, never taken on
faith.

Complete positivity is tested on the extension X -> embed(T(compress(X)))
of T to the full matrix algebra M_N: compression and embedding are both CP,
so the extension is CP exactly when T is. Its Choi matrix is, up to a
permutation, a direct sum with one block per pair of algebra blocks, and
the test reads those blocks from the superoperator directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    Functional,
    _adjoints,
    _identity_vec,
    _side_classes,
    functional_norm,
    jordan_decompose,
    real_form,
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
    ValidationError,
)

CLAIMS = ("verified_cp", "sampled_positive", "declared")
_POSITIVITY_TRIALS = 64  # samples behind a "sampled_positive" claim


@dataclass(frozen=True, eq=False)
class MarkovOperator:
    """Unital, Hermiticity-preserving superoperator with provenance."""

    shape: AlgebraShape
    # the superoperator; None for a product made by `tensor`, whose
    # `matrix` is formed from its factors on first read
    _matrix: np.ndarray | None = field(repr=False)
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
    _real: np.ndarray | None = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def matrix(self) -> np.ndarray:
        """The D x D superoperator on vectorized elements; read-only. For a
        product made by ``tensor`` it is formed from the factors on first
        read (nothing on the ``classify`` path reads it) and kept."""
        if self._matrix is None:
            object.__setattr__(self, "_matrix", _product_matrix(*self.factors))
        return self._matrix

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        if x.shape != self.shape:
            raise ShapeMismatch(f"{self.shape} vs {x.shape}")
        return AlgebraElement.from_vec(self.shape, self.matrix @ x.vec())

    @property
    def dim(self) -> int:
        return self.shape.dim

    @property
    def real_matrix(self) -> np.ndarray:
        """``algebra.real_form`` of the matrix: T in real coordinates over
        the orthonormal Hermitian basis of its shape, real because T
        preserves Hermiticity. Computed on first read; read-only."""
        if self._real is None:
            r = real_form(self.shape, self.matrix)
            r.setflags(write=False)
            object.__setattr__(self, "_real", r)
        return self._real

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


def _validate_construction(shape: AlgebraShape, matrix: np.ndarray,
                           cfg: Config) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    D = shape.dim
    if matrix.shape != (D, D):
        raise ShapeMismatch(f"superoperator must be {D}x{D}, got {matrix.shape}")
    # NaN passes every residual test below, since it compares false
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("superoperator entries must be finite")
    one = _identity_vec(shape)
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
    runs the Choi test, "sampled_positive" runs the sampling check on 64
    random PSD elements drawn at seed 0, "declared" is accepted as stated.
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
        result = check_positive_sampled(op, _POSITIVITY_TRIALS, config=config)
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
    """The map psi -> psi . T under the bilinear trace pairing: psi . T has
    the pairing row psi.row() @ M. For a product S (x) R made by ``tensor``
    the row is formed from the factors, without M: moved to Kronecker order
    by ``tensor_permutation`` and reshaped to X (D_S, D_R), it maps to
    (M_S^T X) M_R. ``matrix`` is the same map on functional vectorizations
    (stacked sigma blocks), K M^T K with K the blockwise transpose
    permutation; it is built on its first read, read-only."""

    shape: AlgebraShape
    operator: MarkovOperator = field(repr=False)

    def __call__(self, psi: Functional) -> Functional:
        if psi.shape != self.shape:
            raise ShapeMismatch(f"{self.shape} vs {psi.shape}")
        if self.operator.factors is None:
            return Functional.from_row(self.shape,
                                       psi.row() @ self.operator.matrix)
        left, right = self.operator.factors
        perm = tensor_permutation(left.shape, right.shape)
        kron = np.empty(self.operator.dim, dtype=complex)
        kron[perm] = psi.row()
        x = kron.reshape(left.dim, right.dim)
        row = ((left.matrix.T @ x) @ right.matrix).reshape(-1)[perm]
        return Functional.from_row(self.shape, row)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        k = transpose_permutation(self.shape)
        m = np.ascontiguousarray(self.operator.matrix.T[np.ix_(k, k)])
        m.setflags(write=False)
        return m


def dual(op: MarkovOperator) -> DualMap:
    return DualMap(op.shape, op)


# ---------------------------------------------------------------------------
# invariant states
# ---------------------------------------------------------------------------

def canonical_invariant_state(op: MarkovOperator, config: Config = DEFAULT) -> Functional:
    """The invariant state obtained by Cesàro-averaging the maximally mixed one.

    Coincides with the unique invariant state when there is only one; always
    gives a deterministic, basis-independent choice when there are several.
    Reads the Cesàro projector P = X Y of the operator's memoized spectral
    data (raising DefectivePeripheral for a Jordan block at 1): the dual
    acts on pairing rows as r -> r @ M, so the averaged state is the one
    with pairing row (u @ X) @ Y, u the maximally mixed state's row.
    """
    from .spectral import _spectral_data  # local import, no cycle at module load
    u = Functional.uniform_state(op.shape).row()
    x, y = _spectral_data(op, config).cesaro_factors()
    psi = Functional.from_row(op.shape, (u @ x) @ y)
    # invariance forces psi(1) real; normalize trace to one
    total = sum(np.trace(b) for b in psi.blocks)
    if abs(total) < 1e-12:
        raise SingularNormalization("averaged state has vanishing trace")
    return psi * (1.0 / total)


def _candidate_states(op: MarkovOperator, rows: np.ndarray,
                      config: Config) -> Iterator[Functional]:
    """The canonical state, then the normalized positive Jordan parts of the
    Hermitian parts of the fixed functionals with pairing rows ``rows``,
    then their negative parts, produced on demand. Real parts come before
    imaginary ones, which often repeat them, and a negative part often
    repeats one already taken (h = p - q and h' = p' - q share q)."""
    yield canonical_invariant_state(op, config)
    pairs = [Functional.from_row(op.shape, row).hermitian_parts()
             for row in rows]
    negatives = []
    for h in [h for h, _ in pairs] + [h for _, h in pairs]:
        if functional_norm(h) < 1e-12:
            continue
        hp, hm = jordan_decompose(h, tol=1e-8)
        negatives.append(hm)
        yield from _normalized(hp)
    for hm in negatives:
        yield from _normalized(hm)


def _normalized(part: Functional) -> Iterator[Functional]:
    """``part`` over its trace norm, unless that norm is rounding noise."""
    pn = functional_norm(part)
    if pn > 1e-10:
        yield part * (1.0 / pn)


def invariant_states(op: MarkovOperator, config: Config = DEFAULT) -> list[Functional]:
    """States spanning the fixed states of the dual map.

    The dual acts on pairing rows as r -> r @ M, so the fixed functionals
    have as rows the left null vectors of M - I. Their number k is read
    from the memoized singular values of M - I, cut at
    ``tol_invariant_state``; singular values within a factor 10 of the cut
    raise NumericalDegeneracy. They are spanned by the rows of the Cesàro
    factor Y (P = X Y, Y M = Y). T preserves Hermiticity, so the Hermitian
    parts of a fixed functional are fixed, and so are the positive Jordan
    parts of a fixed Hermitian functional for positive unital maps: the
    rows give a spanning family of invariant states. Returns exactly one
    state iff the fixed space is one-dimensional.
    """
    from .spectral import _cut, _spectral_data
    data = _spectral_data(op, config)
    s = data.defect
    cut = _cut(s, config.tol_invariant_state)
    ambiguous = [x for x in s if cut / 10.0 < x < cut * 10.0]
    if ambiguous:
        raise NumericalDegeneracy(
            f"singular values {ambiguous} straddle the rank cut {cut:.1e}")
    k = int(np.sum(s <= cut))
    if k == 0:
        raise NumericalDegeneracy("no fixed functional found for a unital map")
    rows = data.cesaro_factors()[1]
    dm = dual(op)

    # keep candidates that really are invariant states, pruned to an
    # independent set spanning the fixed Hermitian functionals; candidates
    # past the k-th state are never built
    states: list[Functional] = []
    # ortho's rows: an orthonormal basis of the span of the states kept
    ortho = np.empty((0, op.dim), dtype=complex)
    for psi in _candidate_states(op, rows, config):
        if not psi.is_state(tol=1e-8):
            continue
        if functional_norm(dm(psi) - psi) > config.tol_invariant_state * 10:
            continue
        # the distance of psi from that span, by Gram-Schmidt taken twice
        # (once more absorbs the rounding of the first pass)
        resid = psi.vec()
        for _ in range(2):
            resid = resid - ortho.T @ (ortho.conj() @ resid)
        distance = np.linalg.norm(resid)
        if distance < 1e-9:
            continue
        states.append(psi)
        ortho = np.vstack([ortho, resid / distance])
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
    steps its orbits as X -> A X B^T on the factors' real matrices, and
    unless a factor is itself such a product, its spectral data is built
    from theirs (the SVD of M - I runs on the kron of their real forms).
    Its dense matrix is formed only when read (``_product_matrix``).
    """
    if not (op.is_cp_verified() and other.is_cp_verified()):
        raise RequiresCP("tensor products are formed for verified CP operators only")
    return MarkovOperator(op.shape.tensor(other.shape), None, "explicit",
                          "verified_cp", factors=(op, other))


def _product_matrix(op: MarkovOperator, other: MarkovOperator) -> np.ndarray:
    """The matrix of op (x) other: the kron of the factors' matrices,
    conjugated by the vec-ordering permutation; read-only."""
    perm = tensor_permutation(op.shape, other.shape)
    m = np.ascontiguousarray(np.kron(op.matrix, other.matrix)[np.ix_(perm, perm)])
    m.setflags(write=False)
    return m


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
