"""Finite-dimensional C*-algebra arithmetic.

An algebra is a direct sum of full matrix blocks; commutative algebras are
modeled as blocks of size 1. Conventions fixed here and relied on everywhere
else:

- Vectorization is column stacking per block, blocks concatenated in order.
  The total vector dimension is D = sum of n_i**2.
- Functionals pair bilinearly, psi(x) = sum_i tr(sigma_i x_i), with no
  conjugation. A functional is Hermitian exactly when its matrices are,
  and its dual-pairing row vector is concat(vec(sigma_i^T)).
- Tensor products order blocks row-major over (i, j) with sides n_i * m_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import NotHermitian, ShapeMismatch


def _frozen_blocks(shape: AlgebraShape,
                   blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Complex, read-only blocks, checked against the shape's block sides."""
    if len(blocks) != len(shape.blocks):
        raise ShapeMismatch(
            f"expected {len(shape.blocks)} blocks, got {len(blocks)}")
    frozen = []
    for n, blk in zip(shape.blocks, blocks):
        blk = np.asarray(blk, dtype=complex)
        if blk.shape != (n, n):
            raise ShapeMismatch(f"block of side {n} has shape {blk.shape}")
        blk.setflags(write=False)
        frozen.append(blk)
    return tuple(frozen)


def _size_classes(blocks: Sequence[np.ndarray]
                  ) -> list[tuple[int, list[int], np.ndarray]]:
    """Blocks grouped by side: (n, block indices, stacked (k, n, n) array).

    Lets the blockwise routines below make one batched LAPACK call (or, for
    n = 1, one elementwise operation) per block side instead of one per block.
    """
    groups: dict[int, list[int]] = {}
    for i, b in enumerate(blocks):
        groups.setdefault(b.shape[0], []).append(i)
    return [(n, idx, np.stack([blocks[i] for i in idx]))
            for n, idx in groups.items()]


def _adjoints(stack: np.ndarray) -> np.ndarray:
    return stack.conj().transpose(0, 2, 1)


def _hermitian_defects(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """max |b - b*| entrywise, per block, in block order."""
    out = np.empty(len(blocks))
    for _, idx, stack in _size_classes(blocks):
        out[idx] = np.max(np.abs(stack - _adjoints(stack)), axis=(1, 2))
    return out


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
# elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One complex matrix per block."""

    shape: AlgebraShape
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __init__(self, shape: AlgebraShape, blocks: Sequence[np.ndarray]):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", _frozen_blocks(shape, blocks))

    # -- vectorization ------------------------------------------------------

    def vec(self) -> np.ndarray:
        """Column-stacked blocks, concatenated. Round-trips via from_vec."""
        return np.concatenate([b.reshape(-1, order="F") for b in self.blocks])

    @staticmethod
    def from_vec(shape: AlgebraShape, v: np.ndarray) -> "AlgebraElement":
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.size != shape.dim:
            raise ShapeMismatch(f"vector of length {v.size} on shape {shape}")
        blocks, pos = [], 0
        for n in shape.blocks:
            blocks.append(v[pos:pos + n * n].reshape((n, n), order="F"))
            pos += n * n
        return AlgebraElement(shape, blocks)

    # -- arithmetic ---------------------------------------------------------

    def _same_shape(self, other: "AlgebraElement") -> None:
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_shape(other)
        return AlgebraElement(self.shape,
                              [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_shape(other)
        return AlgebraElement(self.shape,
                              [a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement(self.shape, [scalar * b for b in self.blocks])

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Blockwise algebra product."""
        self._same_shape(other)
        return AlgebraElement(self.shape,
                              [a @ b for a, b in zip(self.blocks, other.blocks)])

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, [b.conj().T for b in self.blocks])

    def hermitian_parts(self) -> tuple["AlgebraElement", "AlgebraElement"]:
        """x = x1 + i*x2 with both parts self-adjoint."""
        star = self.adjoint()
        x1 = AlgebraElement(self.shape,
                            [(a + b) / 2 for a, b in zip(self.blocks, star.blocks)])
        x2 = AlgebraElement(self.shape,
                            [(a - b) / 2j for a, b in zip(self.blocks, star.blocks)])
        return x1, x2

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return bool(np.all(_hermitian_defects(self.blocks) <= tol))

    @staticmethod
    def identity(shape: AlgebraShape) -> "AlgebraElement":
        return AlgebraElement(shape, [np.eye(n) for n in shape.blocks])

    @staticmethod
    def zero(shape: AlgebraShape) -> "AlgebraElement":
        return AlgebraElement(shape, [np.zeros((n, n)) for n in shape.blocks])


def operator_norm(x: AlgebraElement) -> float:
    """Max over blocks of the largest singular value."""
    best = 0.0
    for n, _, stack in _size_classes(x.blocks):
        if n == 1:
            top = np.max(np.abs(stack))
        else:
            top = np.max(np.linalg.svd(stack, compute_uv=False)[:, 0])
        best = max(best, float(top))
    return best


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Functional:
    """Linear functional psi(x) = sum_i tr(sigma_i x_i).

    The pairing is bilinear (no conjugation), so Hermitian functionals are
    exactly those with Hermitian matrices, and states are those with PSD
    matrices of total trace one.
    """

    shape: AlgebraShape
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __init__(self, shape: AlgebraShape, blocks: Sequence[np.ndarray]):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", _frozen_blocks(shape, blocks))

    def __call__(self, x: AlgebraElement) -> complex:
        if x.shape != self.shape:
            raise ShapeMismatch(f"{self.shape} vs {x.shape}")
        return complex(sum(np.trace(s @ b) for s, b in zip(self.blocks, x.blocks)))

    def row(self) -> np.ndarray:
        """Row vector f with psi(x) = f @ x.vec() (plain dot, no conjugation)."""
        return np.concatenate([b.T.reshape(-1, order="F") for b in self.blocks])

    def vec(self) -> np.ndarray:
        return np.concatenate([b.reshape(-1, order="F") for b in self.blocks])

    @staticmethod
    def from_vec(shape: AlgebraShape, v: np.ndarray) -> "Functional":
        el = AlgebraElement.from_vec(shape, v)
        return Functional(shape, el.blocks)

    @staticmethod
    def from_row(shape: AlgebraShape, f: np.ndarray) -> "Functional":
        el = AlgebraElement.from_vec(shape, f)
        return Functional(shape, [b.T for b in el.blocks])

    def __add__(self, other: "Functional") -> "Functional":
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")
        return Functional(self.shape,
                          [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "Functional") -> "Functional":
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")
        return Functional(self.shape,
                          [a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, scalar: complex) -> "Functional":
        return Functional(self.shape, [scalar * b for b in self.blocks])

    __rmul__ = __mul__

    def adjoint(self) -> "Functional":
        return Functional(self.shape, [b.conj().T for b in self.blocks])

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return bool(np.all(_hermitian_defects(self.blocks) <= tol))

    def is_state(self, tol: float = 1e-10) -> bool:
        if not self.is_hermitian(tol):
            return False
        total = 0.0
        for n, _, stack in _size_classes(self.blocks):
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
    total = 0.0
    for n, _, stack in _size_classes(psi.blocks):
        if n == 1:
            total += float(np.sum(np.abs(stack)))
        else:
            total += float(np.sum(np.linalg.svd(stack, compute_uv=False)))
    return float(total)


def hermitian_split(psi: Functional) -> tuple[Functional, Functional]:
    """psi = psi1 + i*psi2 with psi1, psi2 Hermitian."""
    star = psi.adjoint()
    psi1 = Functional(psi.shape,
                      [(a + b) / 2 for a, b in zip(psi.blocks, star.blocks)])
    psi2 = Functional(psi.shape,
                      [(a - b) / 2j for a, b in zip(psi.blocks, star.blocks)])
    return psi1, psi2


def jordan_decompose(h: Functional, tol: float = 1e-10) -> tuple[Functional, Functional]:
    """Split a Hermitian functional into positive parts h = h+ - h-.

    Built from the positive/negative spectral parts of each matrix, which
    makes the norms exactly additive: ||h||_1 = ||h+||_1 + ||h-||_1.
    Raises NotHermitian if any block fails the Hermiticity tolerance.
    """
    defects = _hermitian_defects(h.blocks)
    bad = np.flatnonzero(defects > tol)
    if bad.size:
        raise NotHermitian(
            f"block deviates from Hermitian by {defects[bad[0]]:.2e}")
    plus: list = [None] * len(h.blocks)
    minus: list = [None] * len(h.blocks)
    for n, idx, stack in _size_classes(h.blocks):
        herm = (stack + _adjoints(stack)) / 2
        if n == 1:
            w = herm.real
            p, m = np.clip(w, 0.0, None), np.clip(-w, 0.0, None)
        else:
            w, u = np.linalg.eigh(herm)
            uh = _adjoints(u)
            p = (u * np.clip(w, 0.0, None)[:, None, :]) @ uh
            m = (u * np.clip(-w, 0.0, None)[:, None, :]) @ uh
        for j, i in enumerate(idx):
            plus[i], minus[i] = p[j], m[j]
    return Functional(h.shape, plus), Functional(h.shape, minus)


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def tensor_elements(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    shape = x.shape.tensor(y.shape)
    return AlgebraElement(shape,
                          [np.kron(a, b) for a in x.blocks for b in y.blocks])


def tensor_functionals(psi: Functional, tau: Functional) -> Functional:
    """Product functional: (psi (x) tau)(x (x) y) = psi(x) * tau(y)."""
    shape = psi.shape.tensor(tau.shape)
    return Functional(shape,
                      [np.kron(a, b) for a in psi.blocks for b in tau.blocks])


def transpose_permutation(shape: AlgebraShape) -> np.ndarray:
    """Index array k with vec(x^T) = x.vec()[k]; an involution."""
    perm = np.empty(shape.dim, dtype=np.intp)
    pos = 0
    for n in shape.blocks:
        idx = np.arange(n * n).reshape((n, n), order="F")
        perm[pos:pos + n * n] = pos + idx.T.reshape(-1, order="F")
        pos += n * n
    return perm


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
    g = random_element(shape, rng)
    h = AlgebraElement(shape, [(b + b.conj().T) / 2 for b in g.blocks])
    if normalized:
        nrm = operator_norm(h)
        if nrm > 0:
            h = h * (1.0 / nrm)
    return h


def random_functional(shape: AlgebraShape, rng: np.random.Generator,
                      normalized: bool = True) -> Functional:
    g = random_element(shape, rng)
    psi = Functional(shape, g.blocks)
    if normalized:
        nrm = functional_norm(psi)
        if nrm > 0:
            psi = psi * (1.0 / nrm)
    return psi


def random_hermitian_functional(shape: AlgebraShape,
                                rng: np.random.Generator) -> Functional:
    g = random_element(shape, rng)
    return Functional(shape, [(b + b.conj().T) / 2 for b in g.blocks])


def random_state(shape: AlgebraShape, rng: np.random.Generator) -> Functional:
    mats = []
    for n in shape.blocks:
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        mats.append(g @ g.conj().T + 1e-12 * np.eye(n))
    total = sum(float(np.trace(m).real) for m in mats)
    return Functional(shape, [m / total for m in mats])
