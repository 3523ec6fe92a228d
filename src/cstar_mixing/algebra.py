"""Finite-dimensional C*-algebra arithmetic.

An algebra is a direct sum of full matrix blocks; commutative algebras are
modeled as blocks of size 1. Conventions fixed here and relied on everywhere
else:

- Vectorization is column stacking per block, blocks concatenated in order.
  The total vector dimension is D = sum of n_i**2. Elements and
  functionals are stored as this vector.
- Functionals pair bilinearly, psi(x) = sum_i tr(sigma_i x_i), with no
  conjugation. A functional is Hermitian exactly when its matrices are,
  and its dual-pairing row vector is concat(vec(sigma_i^T)).
- Tensor products order blocks row-major over (i, j) with sides n_i * m_j.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import NotHermitian, ShapeMismatch


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraShape:
    """Block structure (n_1, ..., n_B) of a direct sum of matrix algebras."""

    blocks: tuple[int, ...]

    def __init__(self, blocks: Iterable[int]):
        blocks = tuple(int(n) for n in blocks)
        if not blocks or any(n < 1 for n in blocks):
            raise ShapeMismatch(f"block sides must be positive integers, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        """Vectorized dimension D = sum of squared block sides."""
        return sum(n * n for n in self.blocks)

    @property
    def matrix_dim(self) -> int:
        """Side N of the block-diagonal embedding into one matrix algebra."""
        return sum(self.blocks)

    @property
    def offsets(self) -> tuple[int, ...]:
        off, acc = [], 0
        for n in self.blocks:
            off.append(acc)
            acc += n * n
        return tuple(off)

    def tensor(self, other: "AlgebraShape") -> "AlgebraShape":
        return AlgebraShape([n * m for n in self.blocks for m in other.blocks])

    def __str__(self) -> str:
        return "(" + ",".join(str(n) for n in self.blocks) + ")"


# ---------------------------------------------------------------------------
# blockwise index maps and norms
# ---------------------------------------------------------------------------

@functools.cache
def _side_classes(shape: AlgebraShape) -> tuple[tuple[int, np.ndarray], ...]:
    """The blocks grouped by side: (n, idx) per side n, with idx[j, a, b] the
    vec position of entry (a, b) of the j-th block of that side, so that
    ``v[..., idx]`` stacks those blocks as (..., k, n, n).

    Lets the blockwise routines below make one batched LAPACK call (or, for
    n = 1, one elementwise operation) per block side instead of one per
    block. Memoized per shape; the index arrays are read-only.
    """
    offsets: dict[int, list[int]] = {}
    for n, pos in zip(shape.blocks, shape.offsets):
        offsets.setdefault(n, []).append(pos)
    classes = []
    for n, offs in offsets.items():
        idx = (np.array(offs)[:, None, None]
               + np.arange(n * n).reshape((n, n), order="F"))
        idx.setflags(write=False)
        classes.append((n, idx))
    return tuple(classes)


def _adjoints(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def transpose_permutation(shape: AlgebraShape) -> np.ndarray:
    """Index array k with vec(x^T) = x.vec()[k]; an involution."""
    perm = np.empty(shape.dim, dtype=np.intp)
    for _, idx in _side_classes(shape):
        perm[idx] = idx.transpose(0, 2, 1)
    return perm


def _fold_singular_values(shape: AlgebraShape, stacked: np.ndarray,
                          ufunc: np.ufunc) -> np.ndarray:
    """The singular values of all blocks folded by ``ufunc`` (np.maximum or
    np.add), for each vector along the last axis of ``stacked``; leading
    axes are kept. One stacked SVD per block side; the singular value of a
    1x1 block is the modulus of its entry."""
    lead = stacked.shape[:-1]
    out = None
    for n, idx in _side_classes(shape):
        start = int(idx[0, 0, 0])
        if idx[-1, -1, -1] - start + 1 == idx.size:
            # adjacent blocks: a view instead of a copy of the stack, which
            # for an estimator orbit holds thousands of vectors
            seg = stacked[..., start:start + idx.size].reshape(
                *lead, -1, n, n).swapaxes(-1, -2)
        else:
            seg = stacked[..., idx]
        s = np.abs(seg) if n == 1 else np.linalg.svd(seg, compute_uv=False)
        part = ufunc.reduce(s.reshape(*lead, -1), axis=-1)
        out = part if out is None else ufunc(out, part)
    return out


def operator_norms(shape: AlgebraShape, stacked: np.ndarray) -> np.ndarray:
    """Operator norms (largest singular value over the blocks) of the
    vectorized elements along the last axis of ``stacked``."""
    return _fold_singular_values(shape, stacked, np.maximum)


def trace_norms(shape: AlgebraShape, stacked: np.ndarray) -> np.ndarray:
    """Trace norms (sum of the singular values of all blocks) of the
    vectorized functionals along the last axis of ``stacked``."""
    return _fold_singular_values(shape, stacked, np.add)


# ---------------------------------------------------------------------------
# elements and functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _BlockVector:
    """One complex matrix per block, stored as one flat vector.

    The vector is read-only: the blocks column-stacked and concatenated, the
    module's vectorization. ``blocks`` are read-only (n, n) views into it.
    Elements and functionals share this storage and everything that does
    not depend on their side of the trace duality.
    """

    shape: AlgebraShape
    _vec: np.ndarray = field(repr=False)

    # makes numpy scalars on the left of * defer to __rmul__
    __array_ufunc__ = None

    def __init__(self, shape: AlgebraShape, blocks: Sequence[np.ndarray]):
        if len(blocks) != len(shape.blocks):
            raise ShapeMismatch(
                f"expected {len(shape.blocks)} blocks, got {len(blocks)}")
        parts = []
        for n, blk in zip(shape.blocks, blocks):
            blk = np.asarray(blk, dtype=complex)
            if blk.shape != (n, n):
                raise ShapeMismatch(f"block of side {n} has shape {blk.shape}")
            parts.append(blk.reshape(-1, order="F"))
        self._hold(shape, np.concatenate(parts))

    def _hold(self, shape: AlgebraShape, vec: np.ndarray) -> None:
        vec.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_vec", vec)

    @classmethod
    def _of(cls, shape: AlgebraShape, vec: np.ndarray):
        """An instance holding ``vec``, a fresh complex vector of length
        shape.dim that nothing else writes to."""
        obj = object.__new__(cls)
        obj._hold(shape, vec)
        return obj

    @functools.cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(self._vec[pos:pos + n * n].reshape((n, n), order="F")
                     for n, pos in zip(self.shape.blocks, self.shape.offsets))

    # -- vectorization ------------------------------------------------------

    def vec(self) -> np.ndarray:
        """Column-stacked blocks, concatenated: the stored read-only vector.
        Round-trips via from_vec."""
        return self._vec

    @classmethod
    def from_vec(cls, shape: AlgebraShape, v: np.ndarray):
        v = np.array(v, dtype=complex).reshape(-1)
        if v.size != shape.dim:
            raise ShapeMismatch(f"vector of length {v.size} on shape {shape}")
        return cls._of(shape, v)

    def _transposed(self) -> np.ndarray:
        """vec of the blockwise transpose."""
        return self._vec[transpose_permutation(self.shape)]

    # -- linear arithmetic --------------------------------------------------

    def _same_shape(self, other: "_BlockVector") -> None:
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._same_shape(other)
        return self._of(self.shape, self._vec + other._vec)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._same_shape(other)
        return self._of(self.shape, self._vec - other._vec)

    def __mul__(self, scalar: complex):
        return self._of(self.shape, scalar * self._vec)

    __rmul__ = __mul__

    # -- adjoints and tensor products ---------------------------------------

    def adjoint(self):
        return self._of(self.shape, np.conj(self._transposed()))

    def hermitian_parts(self):
        """self = h1 + i*h2 with both parts self-adjoint."""
        star = np.conj(self._transposed())
        return (self._of(self.shape, (self._vec + star) / 2),
                self._of(self.shape, (self._vec - star) / 2j))

    def _hermitian_defects(self) -> np.ndarray:
        """max |b - b*| entrywise, per block, in block order."""
        gap = np.abs(self._vec - np.conj(self._transposed()))
        return np.maximum.reduceat(gap, self.shape.offsets)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return bool(np.all(self._hermitian_defects() <= tol))

    def tensor(self, other):
        """self (x) other on shape.tensor(other.shape): blocks kron(a_i, b_j),
        row-major over (i, j). For functionals, (psi (x) tau)(x (x) y) =
        psi(x) * tau(y)."""
        perm = tensor_permutation(self.shape, other.shape)
        return self._of(self.shape.tensor(other.shape),
                        np.kron(self._vec, other._vec)[perm])


@dataclass(frozen=True, eq=False, init=False)
class AlgebraElement(_BlockVector):
    """One complex matrix per block."""

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Blockwise algebra product."""
        self._same_shape(other)
        return AlgebraElement(self.shape,
                              [a @ b for a, b in zip(self.blocks, other.blocks)])

    @staticmethod
    def identity(shape: AlgebraShape) -> "AlgebraElement":
        return AlgebraElement(shape, [np.eye(n) for n in shape.blocks])

    @staticmethod
    def zero(shape: AlgebraShape) -> "AlgebraElement":
        return AlgebraElement._of(shape, np.zeros(shape.dim, dtype=complex))


def operator_norm(x: AlgebraElement) -> float:
    """Max over blocks of the largest singular value."""
    return float(operator_norms(x.shape, x.vec()))


@dataclass(frozen=True, eq=False, init=False)
class Functional(_BlockVector):
    """Linear functional psi(x) = sum_i tr(sigma_i x_i).

    The pairing is bilinear (no conjugation), so Hermitian functionals are
    exactly those with Hermitian matrices, and states are those with PSD
    matrices of total trace one.
    """

    def __call__(self, x: AlgebraElement) -> complex:
        if x.shape != self.shape:
            raise ShapeMismatch(f"{self.shape} vs {x.shape}")
        return complex(self.row() @ x.vec())

    def row(self) -> np.ndarray:
        """Row vector f with psi(x) = f @ x.vec() (plain dot, no conjugation)."""
        return self._transposed()

    @staticmethod
    def from_row(shape: AlgebraShape, f: np.ndarray) -> "Functional":
        return Functional._of(shape, Functional.from_vec(shape, f)._transposed())

    def is_state(self, tol: float = 1e-10) -> bool:
        if not self.is_hermitian(tol):
            return False
        total = 0.0
        for n, idx in _side_classes(self.shape):
            stack = self._vec[idx]
            if n == 1:
                w = stack.real.reshape(-1, 1)
            else:
                w = np.linalg.eigvalsh((stack + _adjoints(stack)) / 2)
            if np.min(w[:, 0]) < -tol:
                return False
            total += float(np.sum(w))
        return abs(total - 1.0) <= max(tol, 1e-12)

    @staticmethod
    def uniform_state(shape: AlgebraShape) -> "Functional":
        """The maximally mixed state: identity blocks over the embedding trace."""
        N = shape.matrix_dim
        return Functional(shape, [np.eye(n) / N for n in shape.blocks])


def functional_norm(psi: Functional) -> float:
    """Sum of blockwise trace norms (the dual norm to the operator norm)."""
    return float(trace_norms(psi.shape, psi.vec()))


def jordan_decompose(h: Functional, tol: float = 1e-10) -> tuple[Functional, Functional]:
    """Split a Hermitian functional into positive parts h = h+ - h-.

    Built from the positive/negative spectral parts of each matrix, which
    makes the norms exactly additive: ||h||_1 = ||h+||_1 + ||h-||_1.
    Raises NotHermitian if any block fails the Hermiticity tolerance.
    """
    defects = h._hermitian_defects()
    bad = np.flatnonzero(defects > tol)
    if bad.size:
        raise NotHermitian(
            f"block deviates from Hermitian by {defects[bad[0]]:.2e}")
    plus = np.empty(h.shape.dim, dtype=complex)
    minus = np.empty(h.shape.dim, dtype=complex)
    for n, idx in _side_classes(h.shape):
        stack = h.vec()[idx]
        herm = (stack + _adjoints(stack)) / 2
        if n == 1:
            w = herm.real
            p, m = np.clip(w, 0.0, None), np.clip(-w, 0.0, None)
        else:
            w, u = np.linalg.eigh(herm)
            uh = _adjoints(u)
            p = (u * np.clip(w, 0.0, None)[:, None, :]) @ uh
            m = (u * np.clip(-w, 0.0, None)[:, None, :]) @ uh
        plus[idx], minus[idx] = p, m
    return Functional._of(h.shape, plus), Functional._of(h.shape, minus)


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def tensor_permutation(a: AlgebraShape, b: AlgebraShape) -> np.ndarray:
    """Source indices s with vec(x (x) y) = (x.vec() kron y.vec())[s].

    Fixes the correspondence between the Kronecker product of vectorized
    elements and the vectorization of the tensor-product element under the
    row-major block order; superoperator tensoring conjugates by it.
    """
    da, db = a.dim, b.dim
    out = np.empty(da * db, dtype=np.intp)
    offa, offb = a.offsets, b.offsets
    pos = 0
    for i, n in enumerate(a.blocks):
        for j, m in enumerate(b.blocks):
            side = n * m
            # entry ((p,r),(q,s)) of kron(x_i, y_j) is x_i[p,q] * y_j[r,s]
            p = np.arange(n)
            q = np.arange(n)
            r = np.arange(m)
            s = np.arange(m)
            P, R, Q, S = np.meshgrid(p, r, q, s, indexing="ij")
            row = P * m + R
            col = Q * m + S
            tgt = pos + row + side * col
            src = ((offa[i] + P + n * Q) * db) + (offb[j] + R + m * S)
            out[tgt.reshape(-1)] = src.reshape(-1)
            pos += side * side
    return out


# ---------------------------------------------------------------------------
# bases and sampling
# ---------------------------------------------------------------------------

def hermitian_basis(shape: AlgebraShape) -> list[AlgebraElement]:
    """Norm-one Hermitian elements spanning the algebra (D of them).

    Per block: the diagonal matrix units, the symmetric pairs E_ab + E_ba,
    and the antisymmetric pairs i(E_ab - E_ba); each has operator norm 1.
    """
    basis = []
    for bi, n in enumerate(shape.blocks):
        def put(mat: np.ndarray) -> None:
            blocks = [np.zeros((m, m), dtype=complex) for m in shape.blocks]
            blocks[bi] = mat
            basis.append(AlgebraElement(shape, blocks))

        for a in range(n):
            m = np.zeros((n, n), dtype=complex)
            m[a, a] = 1.0
            put(m)
        for a in range(n):
            for b in range(a + 1, n):
                m = np.zeros((n, n), dtype=complex)
                m[a, b] = m[b, a] = 1.0
                put(m)
                m = np.zeros((n, n), dtype=complex)
                m[a, b] = 1j
                m[b, a] = -1j
                put(m)
    return basis


def hermitian_basis_matrix(shape: AlgebraShape) -> np.ndarray:
    """D x D matrix whose columns are the vectorized Hermitian basis.

    Written entry by entry, in the order of ``hermitian_basis``; entry
    (a, b) of a block at vec offset pos sits at row pos + a + n*b.
    """
    h = np.zeros((shape.dim, shape.dim), dtype=complex)
    col = 0
    for n, pos in zip(shape.blocks, shape.offsets):
        for a in range(n):
            h[pos + a + n * a, col] = 1.0
            col += 1
        for a in range(n):
            for b in range(a + 1, n):
                ab, ba = pos + a + n * b, pos + b + n * a
                h[ab, col] = h[ba, col] = 1.0
                h[ab, col + 1] = 1j
                h[ba, col + 1] = -1j
                col += 2
    return h


def product_pairing_matrix(psi: Functional) -> np.ndarray:
    """Quadratic form Q with psi(y @ z) = vec(y)^T Q vec(z).

    Block-diagonal; the block for sigma follows from
    tr(sigma y z) = sum over p,q,r of sigma[p,q] y[q,r] z[r,p].
    """
    shape = psi.shape
    q = np.zeros((shape.dim, shape.dim), dtype=complex)
    for n, sigma, pos in zip(shape.blocks, psi.blocks, shape.offsets):
        eye = np.eye(n)
        blk = np.einsum("rs,pq->rqps", eye, sigma).reshape(n * n, n * n)
        q[pos:pos + n * n, pos:pos + n * n] = blk
    return q


def random_element(shape: AlgebraShape, rng: np.random.Generator) -> AlgebraElement:
    """Complex Gaussian blocks with unit-variance entries.

    Block by block, the real then the imaginary parts are drawn as n x n
    arrays; one draw of all of them in that order gives the same numbers.
    """
    draws = rng.standard_normal(2 * shape.dim)
    blocks, pos = [], 0
    for n in shape.blocks:
        k = n * n
        re = draws[pos:pos + k].reshape(n, n)
        im = draws[pos + k:pos + 2 * k].reshape(n, n)
        blocks.append((re + 1j * im) / math.sqrt(2))
        pos += 2 * k
    return AlgebraElement(shape, blocks)


def random_hermitian_element(shape: AlgebraShape,
                             rng: np.random.Generator,
                             normalized: bool = True) -> AlgebraElement:
    h = random_element(shape, rng).hermitian_parts()[0]
    if normalized:
        nrm = operator_norm(h)
        if nrm > 0:
            h = h * (1.0 / nrm)
    return h


def random_functional(shape: AlgebraShape, rng: np.random.Generator,
                      normalized: bool = True) -> Functional:
    psi = Functional.from_vec(shape, random_element(shape, rng).vec())
    if normalized:
        nrm = functional_norm(psi)
        if nrm > 0:
            psi = psi * (1.0 / nrm)
    return psi


def random_state(shape: AlgebraShape, rng: np.random.Generator) -> Functional:
    mats = []
    for n in shape.blocks:
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        mats.append(g @ g.conj().T + 1e-12 * np.eye(n))
    total = sum(float(np.trace(m).real) for m in mats)
    return Functional(shape, [m / total for m in mats])
