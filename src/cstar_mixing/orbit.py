"""Orbits of a Markov operator: every T^k step of the estimators.

The estimators' probes are Hermitian and T preserves Hermiticity, so orbit
columns are held by their real coordinates over orthonormal Hermitian
bases, in an ``_OrbitLayout``, and every step is real arithmetic. The
layout applies T's real matrix to a block of columns as one real GEMM, or,
for a product S (x) R made by ``channel.tensor``, the factors' real
matrices as two real GEMMs on factor-sized matrices, so no step of a tensor
square touches a D^2 x D^2 matrix. Columns and pairing rows move into the
coordinates once and results move back out once. ``_dyadic_powers`` is
the ladder of layouts stepping by T^(2^i), each squared once from the
last; the power estimators read T^(n/2) and T^n off two of its rungs.

The linear estimators (the signed Cesàro means and the norm of the Cesàro
mean) and ``spectral.cesaro_projector_iterative`` read only the orbit sums
at the trace checkpoints and in the trailing windows ending at N/2 and N,
which ``_orbit_sums`` gives by dyadic doubling in about 2 log2 N products.
The correlation modulus reads every pairing rows[j] . T^k x_j, k < N,
which ``_orbit_pairings`` gives by baby and giant steps: the first 64
orbit elements and N/64 rows stepped by powers of T^64, both by doubling,
then one batched product of the two, again about 2 log2 N products. Only
the mean of norms walks the orbit, by ``_orbit``, in strides of up to 64
steps per product, because it stops at the first stride whose end is at
the rounding floor. It reads only the two ends of a stride whose norms stay
flat, and fills the rest: a unital positive map never increases a norm, so
the ends bound the stride.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import orthonormal_hermitian_basis, tensor_permutation
from .channel import MarkovOperator


def _checkpoints(n: int) -> list[int]:
    """Orbit lengths 8, 16, 32, ... <= n at which estimator traces are kept."""
    return [1 << i for i in range(3, n.bit_length())]


def _sample_lengths(n: int, w: int) -> np.ndarray:
    """The orbit lengths k at which the Cesàro estimators read their means:
    the ``_checkpoints``, then the trailing windows (n//2 - w, n//2] and
    (n - w, n]."""
    return np.array(_checkpoints(n) + list(range(n // 2 - w + 1, n // 2 + 1))
                    + list(range(n - w + 1, n + 1)))


def _read_samples(values: np.ndarray, n: int,
                  w: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Split per-pair values at the ``_sample_lengths`` into the
    ``_checkpoints``, the values there and the (2, m) trailing-window
    maxima at N/2 and N."""
    pts = tuple(_checkpoints(n))
    c = len(pts)
    return pts, values[:c], values[c:].reshape(2, w, -1).max(axis=1)


@dataclass(frozen=True, eq=False)
class _OrbitLayout:
    """Where orbit columns live while T steps them.

    Columns are Hermitian elements (T preserves Hermiticity), held by their
    real coordinates over orthonormal Hermitian bases as a real (da, cols,
    db) array X on which the step acts as X -> A X B^T. For a product
    S (x) R made by ``tensor``, A and B are the real matrices of the
    factors and X[:, j, :] holds column j over the products of the
    factors' bases, so a step is two real GEMMs on factor-sized matrices;
    otherwise A is T's real matrix and db = 1.

    Probe columns and pairing rows move in once, results move out once, by
    products with the orthonormal Hermitian bases H_a, H_b of T's shape or
    of the factors' shapes: coordinates H_a* Y conj(H_b), vecs H_a X H_b^T.
    These bases are no larger than A and B, and on the large blocks of
    orbit means that move out of a tensor square one such product is
    faster than ``algebra``'s index maps, whose complex arithmetic makes
    several passes over the block.
    """

    a: np.ndarray
    b: np.ndarray | None
    bases: tuple[np.ndarray, np.ndarray | None]   # H_a, H_b (None: db = 1)
    perm: np.ndarray | None     # tensor_permutation of the factors

    @staticmethod
    def of(op: MarkovOperator) -> "_OrbitLayout":
        if op.factors is None:
            return _OrbitLayout(op.real_matrix, None,
                                (orthonormal_hermitian_basis(op.shape), None),
                                None)
        left, right = op.factors
        return _OrbitLayout(left.real_matrix, right.real_matrix,
                            (orthonormal_hermitian_basis(left.shape),
                             orthonormal_hermitian_basis(right.shape)),
                            tensor_permutation(left.shape, right.shape))

    def squared(self) -> "_OrbitLayout":
        """The same layout stepping by T^2; the factors are squared apart,
        so no D^2 x D^2 matrix is formed for a product."""
        a = self.a @ self.a
        b = None if self.b is None else (
            a if self.b is self.a else self.b @ self.b)
        return _OrbitLayout(a, b, self.bases, self.perm)

    @property
    def sides(self) -> tuple[int, int]:
        return self.a.shape[0], 1 if self.b is None else self.b.shape[0]

    def _split(self, x: np.ndarray, axis: int) -> np.ndarray:
        """Vecs along ``axis`` of x in Kronecker order, split into the
        factors' axes (da, db) at ``axis``."""
        if self.perm is not None:
            kron = np.empty_like(x)
            kron[(slice(None),) * axis + (self.perm,)] = x
            x = kron
        return x.reshape(x.shape[:axis] + self.sides + x.shape[axis + 1:])

    def _by_bases(self, x: np.ndarray, form) -> np.ndarray:
        """form(H_a) X form(H_b)^T for a (da, cols, db) array X."""
        ha, hb = self.bases
        return _sandwich(form(ha), x, None if hb is None else form(hb))

    def columns_in(self, x: np.ndarray) -> np.ndarray:
        """Columns of vecs of Hermitian elements, (D, m), as the real
        layout array (da, m, db)."""
        y = self._split(x, 0).transpose(0, 2, 1)
        return np.ascontiguousarray(
            self._by_bases(y, lambda h: h.conj().T).real)

    def rows_in(self, rows: np.ndarray) -> np.ndarray:
        """Pairing rows r, (m, D), as complex (m, da, db), so that r_j . x_j
        is the sum over a, b of R[j, a, b] X[a, j, b] for the columns X
        moved in."""
        f = self._split(rows, 1).transpose(1, 0, 2)
        return self._by_bases(f, lambda h: h.T).transpose(1, 0, 2)

    def columns_out(self, x: np.ndarray) -> np.ndarray:
        """Columns X of shape (da, ..., db) as vecs along the first axis,
        (da * db, ...), with the middle axes kept."""
        da, *cols, db = x.shape
        y = self._by_bases(x.reshape(da, -1, db), lambda h: h)
        if self.perm is None:
            return y.reshape(da, *cols)
        return np.moveaxis(y, -1, 1).reshape(da * db, *cols)[self.perm]

    def step(self, x: np.ndarray) -> np.ndarray:
        return _sandwich(self.a, x, self.b)

    def transposed(self) -> "_OrbitLayout":
        """The layout whose step moves pairing rows R (da, rows, db) as
        R -> A^T R B: R . (A X B^T) = (A^T R B) . X, so a row stepped by
        it pairs with a column as the row pairs with the stepped column."""
        return _OrbitLayout(self.a.T, None if self.b is None else self.b.T,
                            self.bases, self.perm)


def _sandwich(left: np.ndarray, x: np.ndarray,
              right: np.ndarray | None) -> np.ndarray:
    """left X right^T for a (da, cols, db) array X, as two GEMMs; X -> left X
    when right is None (db = 1). A real X meets a complex ``left`` cast to
    complex: numpy's matmul of mixed types does not reach BLAS."""
    da, cols, db = x.shape
    x = x.reshape(da, cols * db).astype(left.dtype, copy=False)
    y = left @ x
    if right is None:
        return y.reshape(len(left), cols, 1)
    return (y.reshape(len(left) * cols, db) @ right.T).reshape(
        len(left), cols, len(right))


def _dyadic_powers(layout: _OrbitLayout):
    """i -> the layout stepping by T^(2^i), each squared once from the last."""
    powers = [layout]

    def power(i: int) -> _OrbitLayout:
        while len(powers) <= i:
            powers.append(powers[-1].squared())
        return powers[i]
    return power


def _widen(power, x: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` orbit elements [x | T x | ... | T^(width-1) x] of
    moved-in columns x, by widening Y_2j = [Y_j | T^j Y_j]: one product per
    doubling, ``power`` as from ``_dyadic_powers``."""
    m = x.shape[1]
    y, i = x, 0
    while (1 << i) < width:
        j = 1 << i
        y = np.concatenate(
            [y, power(i).step(y[:, :min(j, width - j) * m])], axis=1)
        i += 1
    return y


def _orbit_sums(op: MarkovOperator, x0: np.ndarray, n: int,
                w: int) -> tuple[np.ndarray, _OrbitLayout, np.ndarray]:
    """Orbit sums S_k = sum_{j<k} T^j x0 by dyadic doubling, as (ks, layout,
    sums) with ks = ``_sample_lengths(n, w)``, 1 <= w <= n//2, and sums of
    shape (da, K, m, db) in the layout: ``layout.columns_out(sums)[:, i]``
    is S_ks[i]. Pairing rows with ``layout.rows_in`` needs no move out.

    The first w orbit elements Y_w come from ``_widen``; their prefix sums
    give S_1 .. S_w, and S_2j = S_j + T^j S_j the dyadic sums up to n. The
    pair Z_c = [S_c | T^c Y_w] moves to Z_(c+b) one set bit 2^i of b at a
    time, by T^(2^i) and then S_(2^i) added to its first part; the window
    sums are S_c plus the prefix sums of T^c Y_w, at c = n//2 - w and
    c = n - w. That is about 2 log2 n products for any n, each on
    factor-sized matrices for a tensor square, and no (n, ...) array.
    """
    layout = _OrbitLayout.of(op)
    power = _dyadic_powers(layout)
    x = layout.columns_in(x0)
    da, m, db = x.shape
    window = _widen(power, x, w)
    sums = [window.reshape(da, w, m, db)[:, :1 << i].sum(axis=1)
            for i in range(w.bit_length())]
    while 1 << len(sums) <= n:
        s = sums[-1]
        sums.append(s + power(len(sums) - 1).step(s))

    pts = _checkpoints(n)
    c = len(pts)
    ks = _sample_lengths(n, w)
    out = np.empty((da, ks.size, m, db))
    for i, p in enumerate(pts):
        out[:, i] = sums[p.bit_length() - 1]
    z = np.concatenate([np.zeros_like(x), window], axis=1)
    for start, by in ((c, n // 2 - w), (c + w, n - n // 2)):
        for i in range(by.bit_length()):
            if by >> i & 1:
                z = power(i).step(z)
                z[:, :m] += sums[i]
        part = out[:, start:start + w]
        np.cumsum(z[:, m:].reshape(da, w, m, db), axis=1, out=part)
        part += z[:, None, :m]
    return ks, layout, out


def _orbit(op: MarkovOperator, x0: np.ndarray, n: int):
    """Every element T^k x0, k < n, of the orbit of the probe columns x0,
    walked in order for the mean of norms, which may stop early; the
    correlation modulus reads ``_orbit_pairings`` and the linear estimators
    ``_orbit_sums``.

    Returns (s, layout, strides) with stride s = min(64, n & -n), the
    largest power of two up to 64 that divides n. ``strides`` yields, for
    b = 0, s, ..., n - s, the block [T^b x0 | T^(b+1) x0 | ... |
    T^(b+s-1) x0] in the layout's (da, s*m, db) form. The first block is
    built by ``_widen`` and each next one by one step of T^s, so the orbit
    takes about n/s products.
    """
    layout = _OrbitLayout.of(op)
    power = _dyadic_powers(layout)
    s = min(64, n & -n)
    first = _widen(power, layout.columns_in(x0), s)
    stride = power(s.bit_length() - 1)

    def strides():
        x = first
        yield x
        for _ in range(n // s - 1):
            x = stride.step(x)
            yield x
    return s, layout, strides()


def _orbit_pairings(op: MarkovOperator, rows: np.ndarray, x0: np.ndarray,
                    n: int) -> np.ndarray:
    """rows[j] . T^k x_j for every k < n, as an (n, m) complex array; the
    columns x_j of x0 are Hermitian, the rows any complex pairing rows.

    Baby step, giant step: with s = min(64, n & -n) and k = g s + r,
    rows[j] . T^k x_j = (rows[j] T^(g s)) . (T^r x_j). The s baby steps
    T^r x are ``_widen``'s first block. The n/s giant rows come by the same
    widening on the ``transposed`` ladder from T^s, their real and
    imaginary parts as separate real rows. One batched real product of the
    (m, 2n/s, D) giant rows with the (m, D, s) baby columns then gives every
    pairing: about 2 log2 n products of the ladder in all, each on
    factor-sized matrices for a product.
    """
    layout = _OrbitLayout.of(op)
    power = _dyadic_powers(layout)
    m = x0.shape[1]
    s = min(64, n & -n)
    g, k = n // s, s.bit_length() - 1
    baby = _widen(power, layout.columns_in(x0), s)
    da, _, db = baby.shape
    r = layout.rows_in(rows).transpose(1, 0, 2)
    giant = _widen(lambda i: power(k + i).transposed(),
                   np.concatenate([r.real, r.imag], axis=1), g)
    # giant column b * 2m + c is part c // m of row c % m stepped by T^(b s)
    giant = giant.reshape(da, g, 2, m, db).transpose(3, 2, 1, 0, 4)
    baby = baby.reshape(da, s, m, db).transpose(2, 0, 3, 1)
    parts = np.matmul(giant.reshape(m, 2 * g, da * db),
                      baby.reshape(m, da * db, s)).reshape(m, 2, n)
    out = np.empty((m, n), dtype=complex)
    out.real, out.imag = parts[:, 0], parts[:, 1]
    return out.T
