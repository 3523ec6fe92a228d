"""Orbits of a Markov operator: every T^k step of the estimators.

Orbit columns live in an ``_OrbitLayout``, which applies T to a block of
columns as one dense GEMM, or, for a product S (x) R made by
``channel.tensor``, as two GEMMs on the factor matrices, so no step of a
tensor square touches a D^2 x D^2 matrix. ``_dyadic_powers`` is the ladder
of layouts stepping by T^(2^i), each squared once from the last; the power
estimators read T^(n/2) and T^n off two of its rungs.

The linear estimators (the signed Cesàro means and the norm of the Cesàro
mean) and ``spectral.cesaro_projector_iterative`` read only the orbit sums
at the trace checkpoints and in the trailing windows ending at N/2 and N,
which ``_orbit_sums`` gives by dyadic doubling in about 2 log2 N products.
Only the estimators that need every step (the correlation modulus and the
mean of norms) walk the orbit, by ``_orbit``, in strides of up to 64 steps
per product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import tensor_permutation
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


def _read_samples(values: np.ndarray, n: int, w: int) -> tuple[dict, np.ndarray, np.ndarray]:
    """Split per-pair values at the ``_sample_lengths`` into the checkpoint
    trace and the trailing-window maxima at N/2 and N."""
    pts = _checkpoints(n)
    c = len(pts)
    trace = {"checkpoints": pts,
             "values": [[float(v) for v in row] for row in values[:c]]}
    return trace, values[c:c + w].max(axis=0), values[c + w:].max(axis=0)



@dataclass(frozen=True, eq=False)
class _OrbitLayout:
    """Where orbit columns live while T steps them.

    Columns are held as a (da, cols, db) array X on which the step acts as
    X -> A X B^T. For a product S (x) R made by ``tensor``, A and B are the
    factor matrices and each X[:, j, :] is column j in Kronecker order, so
    a step is two GEMMs on factor-sized matrices; otherwise A is T's matrix
    and db = 1. Probe columns and pairing rows move in once, results move
    out once.
    """

    a: np.ndarray
    b: np.ndarray | None
    perm: np.ndarray | None     # tensor_permutation of the factors

    @staticmethod
    def of(op: MarkovOperator) -> "_OrbitLayout":
        if op.factors is None:
            return _OrbitLayout(op.matrix, None, None)
        left, right = op.factors
        return _OrbitLayout(left.matrix, right.matrix,
                            tensor_permutation(left.shape, right.shape))

    def squared(self) -> "_OrbitLayout":
        """The same layout stepping by T^2; the factors are squared apart,
        so no D^2 x D^2 matrix is formed for a product."""
        a = self.a @ self.a
        b = None if self.b is None else (
            a if self.b is self.a else self.b @ self.b)
        return _OrbitLayout(a, b, self.perm)

    @property
    def sides(self) -> tuple[int, int]:
        return self.a.shape[0], 1 if self.b is None else self.b.shape[0]

    def columns_in(self, x: np.ndarray) -> np.ndarray:
        da, db = self.sides
        if self.perm is None:
            return x.reshape(da, -1, 1)
        kron = np.empty_like(x)
        kron[self.perm] = x
        return np.ascontiguousarray(
            kron.reshape(da, db, -1).transpose(0, 2, 1))

    def rows_in(self, rows: np.ndarray) -> np.ndarray:
        """Rows r as (cols, da, db), so that r_j . x_j is the sum over a, b
        of R[j, a, b] X[a, j, b] for the columns X moved in."""
        da, db = self.sides
        if self.perm is None:
            return rows.reshape(-1, da, 1)
        kron = np.empty_like(rows)
        kron[:, self.perm] = rows
        return kron.reshape(-1, da, db)

    def columns_out(self, x: np.ndarray) -> np.ndarray:
        """Columns X of shape (da, ..., db) as vectors along the first axis,
        (da * db, ...), with the middle axes kept."""
        da, *cols, db = x.shape
        if self.perm is None:
            return x.reshape(da, *cols)
        return np.moveaxis(x, -1, 1).reshape(da * db, *cols)[self.perm]

    def step(self, x: np.ndarray) -> np.ndarray:
        da, cols, db = x.shape
        y = self.a @ x.reshape(da, cols * db)
        if self.b is None:
            return y.reshape(da, cols, 1)
        return (y.reshape(da * cols, db) @ self.b.T).reshape(da, cols, db)


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
    out = np.empty((da, ks.size, m, db), dtype=complex)
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
    for the estimators that read each k (``_eq2`` and ``_mean_norm``); the
    linear ones read ``_orbit_sums``.

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
