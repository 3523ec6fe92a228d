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
from typing import Callable, Iterable, Sequence

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

    # cached on first read; cached attributes are not dataclass fields, so
    # equality and hashing still see ``blocks`` alone
    @functools.cached_property
    def dim(self) -> int:
        """Vectorized dimension D = sum of squared block sides."""
        return sum(n * n for n in self.blocks)

    @property
    def matrix_dim(self) -> int:
        """Side N of the block-diagonal embedding into one matrix algebra."""
        return sum(self.blocks)

    @functools.cached_property
    def offsets(self) -> tuple[int, ...]:
        """Vec position of each block's first entry."""
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


@functools.cache
def transpose_permutation(shape: AlgebraShape) -> np.ndarray:
    """Index array k with vec(x^T) = x.vec()[k]; an involution. Memoized
    per shape; the array is read-only."""
    perm = np.empty(shape.dim, dtype=np.intp)
    for _, idx in _side_classes(shape):
        perm[idx] = idx.transpose(0, 2, 1)
    perm.setflags(write=False)
    return perm


@functools.cache
def _identity_vec(shape: AlgebraShape) -> np.ndarray:
    """vec of the unit, identity blocks. Memoized per shape; read-only."""
    one = np.zeros(shape.dim, dtype=complex)
    for n, idx in _side_classes(shape):
        one[idx[:, range(n), range(n)]] = 1.0
    one.setflags(write=False)
    return one


@functools.cache
def _draw_positions(shape: AlgebraShape) -> np.ndarray:
    """(2, D) index array: the positions, in one row of 2D standard normals,
    of the real (row 0) and imaginary (row 1) part of each vec entry.

    Block by block, the row holds the block's real parts as an n x n
    array, then its imaginary parts, each row-major: the order in which
    drawing the blocks one at a time consumes the generator. Memoized per
    shape; the array is read-only.
    """
    pos = np.empty((2, shape.dim), dtype=np.intp)
    for n, idx in _side_classes(shape):
        # a block at vec offset p starts at row offset 2p
        re = 2 * idx[:, :1, :1] + np.arange(n * n).reshape(n, n)
        pos[0, idx], pos[1, idx] = re, re + n * n
    pos.setflags(write=False)
    return pos


def block_products(shape: AlgebraShape, a: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """vec of the blockwise products x y, for vecs of x and y along the last
    axes of ``a`` and ``b`` (leading axes broadcast). One matmul per block
    side; a 1x1 block goes through matmul too, since an elementwise complex
    product can round differently from one block's ``@``."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for _, idx in _side_classes(shape):
        out[..., idx] = np.take(a, idx, axis=-1) @ np.take(b, idx, axis=-1)
    return out


def _fold_block_values(shape: AlgebraShape, stacked: np.ndarray,
                       values: Callable[[np.ndarray], np.ndarray],
                       ufunc: np.ufunc) -> np.ndarray:
    """Per-block values folded by ``ufunc`` (np.maximum or np.add), for each
    vector along the last axis of ``stacked``; leading axes are kept.
    ``values`` maps a stack (..., k, n, n) of the blocks of one side n > 1
    to their values (..., k, n), so there is one batched LAPACK call per
    block side; the value of a 1x1 block is the modulus of its entry.
    The fold runs on a C-ordered copy of a stack in any other layout, so
    that its order, and with it the sum's rounding, never depends on the
    layout."""
    stacked = np.ascontiguousarray(stacked)
    lead = stacked.shape[:-1]
    out = None
    for n, idx in _side_classes(shape):
        start = int(idx[0, 0, 0])
        if idx[-1, -1, -1] - start + 1 == idx.size:
            # adjacent blocks: a view instead of a copy of the stack, which
            # for an estimator orbit holds thousands of vectors
            seg = stacked[..., start:start + idx.size].reshape(
                *lead, len(idx), n, n).swapaxes(-1, -2)
        else:
            seg = stacked[..., idx]
        s = np.abs(seg) if n == 1 else values(seg)
        # k blocks give k * n values; the sizes are explicit because an
        # empty stack leaves no -1 to infer
        part = ufunc.reduce(s.reshape(*lead, len(idx) * n), axis=-1)
        out = part if out is None else ufunc(out, part)
    return out


def _singular_values(seg: np.ndarray) -> np.ndarray:
    return np.linalg.svd(seg, compute_uv=False)


def _eigenvalue_moduli(seg: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvalsh(seg))


def operator_norms(shape: AlgebraShape, stacked: np.ndarray) -> np.ndarray:
    """Operator norms (largest singular value over the blocks) of the
    vectorized elements along the last axis of ``stacked``."""
    return _fold_block_values(shape, stacked, _singular_values, np.maximum)


def hermitian_operator_norms(shape: AlgebraShape,
                             stacked: np.ndarray) -> np.ndarray:
    """``operator_norms`` of Hermitian elements: the largest eigenvalue
    modulus over the blocks, by a stacked eigvalsh (1.75-2.2x faster than
    the SVD on 4096 x 5 stacks of 2x2 to 4x4 blocks, 2-core OpenBLAS). Only
    one triangle of each block is read, so the result is that of the
    Hermitian element with that triangle; on Hermitian input the two norms
    agree to rounding."""
    return _fold_block_values(shape, stacked, _eigenvalue_moduli, np.maximum)


def trace_norms(shape: AlgebraShape, stacked: np.ndarray) -> np.ndarray:
    """Trace norms (sum of the singular values of all blocks) of the
    vectorized functionals along the last axis of ``stacked``."""
    return _fold_block_values(shape, stacked, _singular_values, np.add)


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
        return AlgebraElement._of(self.shape,
                                  block_products(self.shape, self._vec, other._vec))

    @staticmethod
    def identity(shape: AlgebraShape) -> "AlgebraElement":
        return AlgebraElement._of(shape, _identity_vec(shape))

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
        return Functional._of(shape, _identity_vec(shape) / shape.matrix_dim)


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

@functools.cache
def tensor_permutation(a: AlgebraShape, b: AlgebraShape) -> np.ndarray:
    """Source indices s with vec(x (x) y) = (x.vec() kron y.vec())[s].

    Fixes the correspondence between the Kronecker product of vectorized
    elements and the vectorization of the tensor-product element under the
    row-major block order; superoperator tensoring conjugates by it. Built
    in one broadcast per pair of block sides; memoized per pair of shapes,
    and the array is read-only.
    """
    db = b.dim
    out = np.empty(a.dim * db, dtype=np.intp)
    pos = np.reshape(a.tensor(b).offsets, (len(a.blocks), len(b.blocks)))
    sides_a, sides_b = np.array(a.blocks), np.array(b.blocks)
    offa, offb = np.array(a.offsets), np.array(b.offsets)
    for n in set(a.blocks):
        i = np.flatnonzero(sides_a == n)[:, None, None, None, None, None]
        for m in set(b.blocks):
            j = np.flatnonzero(sides_b == m)[:, None, None, None, None]
            # axes (i, j, p, r, q, s): entry ((p,r),(q,s)) of kron(x_i, y_j)
            # is x_i[p,q] * y_j[r,s]
            p, r, q, s = np.ix_(range(n), range(m), range(n), range(m))
            tgt = pos[i, j] + (p * m + r) + n * m * (q * m + s)
            src = (offa[i] + p + n * q) * db + offb[j] + r + m * s
            out[tgt.reshape(-1)] = src.reshape(-1)
    out.setflags(write=False)
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


@functools.cache
def _hermitian_index(shape: AlgebraShape) -> tuple[np.ndarray, ...]:
    """(diag, upper, lower, diag_cols, pair_cols), read-only: the vec
    positions of every block's diagonal entries (a, a), of its entries
    (a, b) with a < b and of their mirrors (b, a), and the columns of the
    ``hermitian_basis`` elements they carry. The matrix unit at diag[t] is
    column diag_cols[t]; the pair upper[t], lower[t] carries the symmetric
    element in column pair_cols[t] and the antisymmetric one in the next.
    Memoized per shape."""
    parts: list[list[np.ndarray]] = [[], [], [], [], []]
    for n, idx in _side_classes(shape):
        # a block at vec offset p has basis columns p .. p + n*n - 1: its
        # n matrix units, then a (symmetric, antisymmetric) pair per a < b
        first = idx[:, :1, 0]
        a, b = np.triu_indices(n, 1)
        for part, value in zip(parts, (
                idx[:, range(n), range(n)], idx[:, a, b], idx[:, b, a],
                first + np.arange(n), first + n + 2 * np.arange(a.size))):
            part.append(value.ravel())
    out = tuple(np.concatenate(part) for part in parts)
    for a in out:
        a.setflags(write=False)
    return out


@functools.cache
def hermitian_basis_matrix(shape: AlgebraShape) -> np.ndarray:
    """D x D matrix whose columns are the vectorized Hermitian basis, in the
    order of ``hermitian_basis``. Memoized per shape; the array is
    read-only."""
    diag, upper, lower, diag_cols, pair_cols = _hermitian_index(shape)
    h = np.zeros((shape.dim, shape.dim), dtype=complex)
    h[diag, diag_cols] = 1.0
    h[upper, pair_cols] = h[lower, pair_cols] = 1.0
    h[upper, pair_cols + 1] = 1j
    h[lower, pair_cols + 1] = -1j
    h.setflags(write=False)
    return h


@functools.cache
def hermitian_basis_norms(shape: AlgebraShape) -> np.ndarray:
    """Euclidean norms of the columns of ``hermitian_basis_matrix``: 1 for
    a matrix unit, sqrt(2) for a pair (entries 1, 1 or i, -i), the floats
    ``np.linalg.norm`` gives, read off ``_hermitian_index`` without forming
    the D x D matrix. Memoized per shape; read-only."""
    _, _, _, diag_cols, pair_cols = _hermitian_index(shape)
    norms = np.empty(shape.dim)
    norms[diag_cols] = 1.0
    norms[pair_cols] = norms[pair_cols + 1] = math.sqrt(2.0)
    norms.setflags(write=False)
    return norms


@functools.cache
def orthonormal_hermitian_basis(shape: AlgebraShape) -> np.ndarray:
    """``hermitian_basis_matrix`` with unit columns: a unitary H with
    H* H = I whose columns are Hermitian. A Hermitian element x has real
    coordinates H* vec(x), and a Hermiticity-preserving M the real matrix
    H* M H. Memoized per shape; read-only. The functions below apply H*
    and H^T by index arithmetic, without forming H, for the algebras of
    tensor squares too."""
    h = hermitian_basis_matrix(shape) / hermitian_basis_norms(shape)
    h.setflags(write=False)
    return h


_HALF_ROOT = 1.0 / math.sqrt(2.0)


@functools.cache
def _basis_gathers(shape: AlgebraShape, phase: complex) -> tuple[np.ndarray, ...]:
    """(src0, w0, src1, w1), read-only, with x[src0] w0 + x[src1] w1 equal
    to H* x (phase -1j) or H^T x (phase 1j), H the
    ``orthonormal_hermitian_basis``: each coordinate combines at most two
    entries of x. Memoized per shape and phase."""
    diag, upper, lower, diag_cols, pair_cols = _hermitian_index(shape)
    src = np.empty((2, shape.dim), dtype=np.intp)
    w = np.zeros((2, shape.dim), dtype=complex)
    src[:, diag_cols] = diag
    w[0, diag_cols] = 1.0
    src[0, pair_cols] = src[0, pair_cols + 1] = upper
    src[1, pair_cols] = src[1, pair_cols + 1] = lower
    w[:, pair_cols] = _HALF_ROOT
    w[0, pair_cols + 1] = phase * _HALF_ROOT
    w[1, pair_cols + 1] = -phase * _HALF_ROOT
    for a in (src, w):
        a.setflags(write=False)
    return src[0], w[0], src[1], w[1]


def _basis_adjoint(shape: AlgebraShape, x: np.ndarray, axis: int,
                   phase: complex) -> np.ndarray:
    """``_basis_gathers`` of ``phase`` applied along ``axis`` of x."""
    src0, w0, src1, w1 = _basis_gathers(shape, phase)
    x = np.asarray(x)
    tail = (-1,) + (1,) * (x.ndim - axis % x.ndim - 1)
    out = np.take(x, src0, axis=axis).astype(complex, copy=False)
    out *= w0.reshape(tail)
    second = np.take(x, src1, axis=axis).astype(complex, copy=False)
    second *= w1.reshape(tail)
    out += second
    return out


def hermitian_coordinates(shape: AlgebraShape, x: np.ndarray,
                          axis: int = 0) -> np.ndarray:
    """H* x along ``axis``, H the ``orthonormal_hermitian_basis``: the
    coordinates of vecs, real up to rounding for Hermitian elements."""
    return _basis_adjoint(shape, x, axis, -1j)


def pairing_coordinates(shape: AlgebraShape, f: np.ndarray,
                        axis: int = 0) -> np.ndarray:
    """H^T f along ``axis``: the coordinates of pairing rows, so that
    f . vec(x) = (H^T f) . (H* vec(x)) for every element x."""
    return _basis_adjoint(shape, f, axis, 1j)


def real_form(shape: AlgebraShape, matrix: np.ndarray) -> np.ndarray:
    """H* M H, H the ``orthonormal_hermitian_basis``: the real matrix of a
    Hermiticity-preserving M in real coordinates (the imaginary parts,
    rounding only, are dropped)."""
    return np.ascontiguousarray(hermitian_coordinates(
        shape, pairing_coordinates(shape, matrix, axis=1)).real)


def _gaussian_vecs(shape: AlgebraShape, rng: np.random.Generator,
                   m: int) -> np.ndarray:
    """(m, D): the vecs of m complex Gaussian elements with standard normal
    real and imaginary parts, from one draw of m rows of 2D normals read
    through ``_draw_positions``."""
    re, im = _draw_positions(shape)
    draws = rng.standard_normal((m, 2 * shape.dim))
    return np.take(draws, re, axis=1) + 1j * np.take(draws, im, axis=1)


def _unit_scaled(vecs: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Each row of ``vecs`` over its norm; a row of norm 0 is kept."""
    inv = np.divide(1.0, norms, out=np.ones_like(norms), where=norms > 0)
    return vecs * inv[:, None]


def _random_hermitian_vecs(shape: AlgebraShape, rng: np.random.Generator,
                           m: int) -> np.ndarray:
    """(m, D): the Hermitian parts (x + x*)/2 of m ``random_element`` draws."""
    x = _gaussian_vecs(shape, rng, m) / math.sqrt(2)
    return (x + np.conj(np.take(x, transpose_permutation(shape), axis=1))) / 2


def _random_functional_vecs(shape: AlgebraShape, rng: np.random.Generator,
                            m: int, normalized: bool = True) -> np.ndarray:
    """(m, D): m ``random_functional`` draws."""
    psi = _gaussian_vecs(shape, rng, m) / math.sqrt(2)
    return _unit_scaled(psi, trace_norms(shape, psi)) if normalized else psi


def _random_state_vecs(shape: AlgebraShape, rng: np.random.Generator,
                       m: int) -> np.ndarray:
    """(m, D): m ``random_state`` draws, g g* + 1e-12 per block over the
    total trace, with the products of one block side in one batched matmul.
    The block traces are summed in block order by a cumulative sum, as one
    at a time."""
    g = _gaussian_vecs(shape, rng, m)
    mats = np.empty_like(g)
    traces = np.empty((m, shape.dim))
    for n, idx in _side_classes(shape):
        stack = np.take(g, idx, axis=1)
        prod = stack @ _adjoints(stack) + 1e-12 * np.eye(n)
        mats[:, idx] = prod
        traces[:, idx[:, 0, 0]] = np.trace(prod, axis1=-2, axis2=-1).real
    total = np.cumsum(traces[:, shape.offsets], axis=1)[:, -1:]
    return mats / total


def random_element(shape: AlgebraShape, rng: np.random.Generator) -> AlgebraElement:
    """Complex Gaussian blocks with unit-variance entries.

    Block by block, the real then the imaginary parts are drawn as n x n
    arrays. All of them come from one draw in that order, read into the vec
    by the per-shape index map ``_draw_positions``; the estimators draw m
    elements as m rows of the same map.
    """
    return AlgebraElement._of(shape, _gaussian_vecs(shape, rng, 1)[0] / math.sqrt(2))


def random_hermitian_element(shape: AlgebraShape,
                             rng: np.random.Generator,
                             normalized: bool = True) -> AlgebraElement:
    h = AlgebraElement._of(shape, _random_hermitian_vecs(shape, rng, 1)[0])
    if normalized:
        nrm = operator_norm(h)
        if nrm > 0:
            h = h * (1.0 / nrm)
    return h


def random_functional(shape: AlgebraShape, rng: np.random.Generator,
                      normalized: bool = True) -> Functional:
    psi = _random_functional_vecs(shape, rng, 1, normalized)[0]
    return Functional._of(shape, psi)


def random_state(shape: AlgebraShape, rng: np.random.Generator) -> Functional:
    return Functional._of(shape, _random_state_vecs(shape, rng, 1)[0])
