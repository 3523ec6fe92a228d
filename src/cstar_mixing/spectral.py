"""Spectral analysis of superoperators.

Spectrum with clustered multiplicities, peripheral part, fixed-space
dimension, Cesàro projectors (exact spectral form and iterated running
means), power limits, and defectiveness detection. An operator's spectral
data comes from one sorted complex Schur form and one SVD of M - I of its
dense D x D matrix, except for a tensor product S (x) R built by
``channel.tensor``: its eigenvalues, clusters, Cesàro projector and defect
flag come from the factors' own data (the peripheral spectrum of a
power-bounded map is diagonalizable, so the Cesàro projector of S (x) R is
the sum of P_a (x) P_b over factor clusters a, b with ab = 1), and only the
SVD of M - I runs on the product's own matrix.

A peripheral Jordan block is a hard error throughout. Positive unital maps
are power-bounded, so a defective peripheral cluster proves the input is not
actually a Markov operator (or that the eigenproblem broke down); treating
it as a classification outcome would be wrong either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .algebra import tensor_permutation
from .channel import MarkovOperator
from .config import DEFAULT, Config
from .errors import DefectivePeripheral, EigensolverFailure
from .orbit import _orbit_sums


def _cut(s: np.ndarray, rel_tol: float) -> float:
    """Rank cut for descending singular values ``s``, relative to max(s_0, 1)."""
    return rel_tol * max(float(s[0]) if s.size else 0.0, 1.0)


def _rank(m: np.ndarray, rel_tol: float) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > _cut(s, rel_tol)))


def _cluster_labels(eigs: np.ndarray, radius: float
                    ) -> tuple[np.ndarray, list[tuple[complex, int]]]:
    """Chain-cluster eigenvalues: the connected components of the graph
    joining points within ``radius``.

    Clusters are ordered by the real parts of their centers, and clusters
    whose centers' real parts chain together within ``radius`` by imaginary
    part: the real parts of a conjugate pair agree only up to rounding, which
    must not decide which of the two comes first. Returns the cluster index
    of every input point and the clusters as (center, multiplicity) pairs,
    the center being the mean.
    """
    order = np.lexsort((eigs.imag, eigs.real))
    pts = eigs[order]
    near = np.abs(pts[:, None] - pts[None, :]) <= radius
    # every label is a point of the same component and never above its own
    # index, so the labels fall to each component's smallest index
    labels = np.arange(pts.size)
    while True:
        low = np.where(near, labels, pts.size).min(axis=1)
        low = low[low]
        if np.array_equal(low, labels):
            break
        labels = low
    heads = np.flatnonzero(labels == np.arange(pts.size))
    index = np.searchsorted(heads, labels)
    mult = np.bincount(index)
    centers = (np.bincount(index, pts.real)
               + 1j * np.bincount(index, pts.imag)) / mult
    by_real = np.argsort(centers.real, kind="stable")
    band = np.cumsum(np.diff(centers.real[by_real], prepend=-np.inf) > radius)
    ranked = by_real[np.lexsort((centers.imag[by_real], band))]
    rank = np.empty_like(ranked)
    rank[ranked] = np.arange(ranked.size)
    out = np.empty(pts.size, dtype=np.intp)
    out[order] = rank[index]
    return out, [(complex(c), int(k))
                 for c, k in zip(centers[ranked], mult[ranked])]


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    """Spectrum of a channel with the derived mixing-relevant facts."""

    eigenvalues: tuple[complex, ...]
    clusters: tuple[tuple[complex, int], ...]
    peripheral: tuple[complex, ...]          # cluster centers with |lam| ~ 1
    fixed_space_dim: int
    defective_peripheral: bool
    spectral_radius: float


@dataclass(frozen=True, eq=False)
class _SpectralData:
    """All the spectral layer knows of one matrix M under one ``Config``.

    Every array is read-only. M - I = U diag(s) V* is always one SVD of M
    itself. The rest comes from one complex Schur form of M with the
    eigenvalue-1 cluster sorted to the front (``schur``, with the index of
    each diagonal entry's cluster in ``labels``), or, for a product S (x) R
    made by ``channel.tensor``, from the data of S and R (``schur`` and
    ``labels`` are then None).
    """

    summary: SpectralSummary
    one_count: int                  # eigenvalues counted into the 1-cluster
    projector: np.ndarray | None    # Cesàro projector; None: Jordan block at 1
    defect_u: np.ndarray            # U of the SVD of M - I
    defect_s: np.ndarray            # s, descending
    schur: tuple[np.ndarray, np.ndarray] | None = field(default=None,
                                                        repr=False)
    labels: np.ndarray | None = field(default=None, repr=False)
    # cluster index -> spectral projector, filled by cluster_projector
    _cluster_projectors: dict = field(default_factory=dict, repr=False)

    def cesaro(self) -> np.ndarray:
        """The Cesàro projector, or DefectivePeripheral for a Jordan block at 1."""
        if self.projector is None:
            raise DefectivePeripheral(
                f"eigenvalue-1 cluster has geometric multiplicity "
                f"{self.summary.fixed_space_dim} < {self.one_count}")
        return self.projector

    def cluster_projector(self, i: int) -> np.ndarray:
        """Spectral projector onto ``summary.clusters[i]``, computed on first
        request: LAPACK's ``ztrsen`` moves the cluster to the front of the
        Schur form, then the ``ztrsyl`` solve of ``_projector_from_schur``."""
        p = self._cluster_projectors.get(i)
        if p is None:
            t, z = self.schur
            select = (self.labels == i).astype(np.int32)
            ts, zs, _, k, _, _, info = scipy.linalg.lapack.ztrsen(
                select, t, z, job="N")
            if info < 0:
                raise EigensolverFailure(
                    f"Schur reordering rejected argument {-info}")
            p = _projector_from_schur(ts, zs, int(k))
            p.setflags(write=False)
            p = self._cluster_projectors.setdefault(i, p)
        return p


def _spectral_data(op: MarkovOperator, config: Config) -> _SpectralData:
    """The spectral data of ``op.matrix``, memoized on the (frozen) operator
    per ``Config``. A product of two unfactored operators is analysed
    through its factors."""
    data = op._spectral_memo.get(config)
    if data is None:
        if op.factors is not None and all(f.factors is None
                                          for f in op.factors):
            data = _analyse_product(op, config)
        else:
            data = _analyse(op.matrix, config)
        data = op._spectral_memo.setdefault(config, data)
    return data


def _defect_svd(m: np.ndarray, config: Config
                ) -> tuple[np.ndarray, np.ndarray, int]:
    """U, s of the SVD of M - I (read-only) and D - rank(M - I)."""
    try:
        u, s, _ = np.linalg.svd(m - np.eye(m.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"SVD of M - I failed: {exc}") from exc
    u.setflags(write=False)
    s.setflags(write=False)
    return u, s, m.shape[0] - int(np.sum(s > _cut(s, config.tol_rank)))


def _summary(eigs: np.ndarray, clusters: list, fixed: int, defective: bool,
             config: Config) -> SpectralSummary:
    return SpectralSummary(
        eigenvalues=tuple(complex(x) for x in eigs),
        clusters=tuple(clusters),
        peripheral=tuple(c for c, _ in clusters
                         if abs(c) >= 1.0 - config.tol_peripheral),
        fixed_space_dim=int(fixed),
        defective_peripheral=defective,
        spectral_radius=float(np.max(np.abs(eigs))),
    )


def _analyse(m: np.ndarray, config: Config) -> _SpectralData:
    D = m.shape[0]
    tol = config.tol_cluster
    try:
        t, z, sdim = scipy.linalg.schur(
            m, output="complex", sort=lambda lam: abs(lam - 1.0) <= tol)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise EigensolverFailure(f"Schur form failed: {exc}") from exc
    u, s, fixed = _defect_svd(m, config)
    eigs = np.diag(t).copy()
    k = int(sdim)
    labels, clusters = _cluster_labels(eigs, tol)
    # the 1-cluster is defective iff its geometric multiplicity, read from
    # the SVD of M - I, falls short of its Schur count; every other
    # peripheral cluster of multiplicity > 1 needs a rank of its own
    projector = None if fixed < k else _projector_from_schur(t, z, k)
    eye = np.eye(D)
    defective = projector is None or any(
        D - _rank(m - center * eye, config.tol_rank) < mult
        for center, mult in clusters
        if mult > 1 and abs(center) >= 1.0 - config.tol_peripheral
        and abs(center - 1.0) > tol)
    for a in (projector, t, z, labels):
        if a is not None:
            a.setflags(write=False)
    summary = _summary(eigs, clusters, fixed, defective, config)
    return _SpectralData(summary, k, projector, u, s, (t, z), labels)


def _analyse_product(op: MarkovOperator, config: Config) -> _SpectralData:
    """Spectral data of S (x) R from the memoized data of S and R.

    The eigenvalues are the products ab; S and R are power-bounded, so their
    peripheral clusters carry no Jordan blocks, and the Cesàro projector is
    the sum of P_a (x) P_b over the factor clusters with |ab - 1| <=
    tol_cluster, conjugated by ``tensor_permutation``. The product is
    defective when a factor is, or when the SVD of its own M - I leaves
    fewer fixed directions than that sum counts.
    """
    left, right = op.factors
    a, b = _spectral_data(left, config), _spectral_data(right, config)
    u, s, fixed = _defect_svd(op.matrix, config)
    eigs = np.multiply.outer(np.array(a.summary.eigenvalues),
                             np.array(b.summary.eigenvalues)).ravel()
    clusters = _cluster_labels(eigs, config.tol_cluster)[1]
    ca, ma = (np.array(x) for x in zip(*a.summary.clusters))
    cb, mb = (np.array(x) for x in zip(*b.summary.clusters))
    pairs = np.argwhere(np.abs(np.multiply.outer(ca, cb) - 1.0)
                        <= config.tol_cluster)
    k = int(sum(ma[i] * mb[j] for i, j in pairs))
    defective = (a.summary.defective_peripheral
                 or b.summary.defective_peripheral or fixed < k)
    projector = None
    if not defective:
        kron = np.zeros(op.matrix.shape, dtype=complex)
        for i, j in pairs:
            kron += np.kron(a.cluster_projector(i), b.cluster_projector(j))
        perm = tensor_permutation(left.shape, right.shape)
        projector = np.ascontiguousarray(kron[np.ix_(perm, perm)])
        projector.setflags(write=False)
    summary = _summary(eigs, clusters, fixed, defective, config)
    return _SpectralData(summary, k, projector, u, s)


def _projector_from_schur(t: np.ndarray, z: np.ndarray, k: int) -> np.ndarray:
    """Spectral projector onto the first k Schur eigenvalues along the rest.

    u11 and u22 are already upper triangular: solve u11 R - R u22 = u12 with
    LAPACK's triangular Sylvester solver, no further Schur step.
    """
    D = t.shape[0]
    if k == 0:
        return np.zeros((D, D), dtype=complex)
    if k == D:
        return np.eye(D, dtype=complex)
    r, scale, info = scipy.linalg.lapack.ztrsyl(
        t[:k, :k], t[k:, k:], t[:k, k:], isgn=-1)
    if info < 0:
        raise EigensolverFailure(
            f"triangular Sylvester solve rejected argument {-info}")
    w = np.zeros((D, D), dtype=complex)
    w[:k, :k] = np.eye(k)
    w[:k, k:] = r / scale
    return z @ w @ z.conj().T


def spectrum(op: MarkovOperator, config: Config = DEFAULT) -> SpectralSummary:
    """Eigenvalues, clusters, peripheral part and fixed space.

    Reads the ``summary`` of the operator's memoized spectral data (one per
    operator and ``Config``, so repeated calls return the same object):
    eigenvalues from the diagonal of the sorted Schur form (for a product
    made by ``tensor``, the products of its factors' eigenvalues),
    fixed_space_dim as D - rank(M - I) from the one SVD of M - I.
    Defectiveness compares geometric and algebraic (clustered)
    multiplicities on every peripheral cluster. The Cesàro projector is
    read with ``cesaro_projector_spectral``.
    """
    return _spectral_data(op, config).summary


def cesaro_projector_spectral(op: MarkovOperator,
                              config: Config = DEFAULT) -> np.ndarray:
    """The limit of the running means (1/n) sum_{k<n} T^k, computed exactly.

    Read from the operator's memoized spectral data: the returned array is
    shared between calls and read-only. Raises DefectivePeripheral when a
    peripheral cluster is defective.
    """
    data = _spectral_data(op, config)
    if data.summary.defective_peripheral:
        raise DefectivePeripheral(
            "peripheral cluster with nontrivial Jordan structure; "
            "input is not a power-bounded Markov operator")
    return data.projector


@dataclass(frozen=True, eq=False)
class CesaroIterate:
    """Result of the iterated Cesàro mean.

    ``matrix`` is the dyadic Richardson extrapolate of the running mean,
    which removes the Theta(1/N) tail of the raw mean while using nothing
    but repeated applications of T; ``raw_mean`` is the plain running mean
    M_N, and ``converged``/``residual`` report the pinned dyadic test
    ||M_N - M_{N/2}|| <= tol (spectral norm).
    """

    matrix: np.ndarray = field(repr=False)
    converged: bool
    residual: float
    raw_mean: np.ndarray = field(repr=False)


def cesaro_projector_iterative(op: MarkovOperator, n: int, tol: float,
                               config: Config = DEFAULT) -> CesaroIterate:
    """Running mean of T^k by dyadic doubling, with extrapolation.

    The sums S_k of T^j over j < k come from ``orbit._orbit_sums``, the
    doubling the linear estimators use (S_2m = S_m + T^m S_m,
    T^2m = (T^m)^2, a general n by its binary expansion), at k = n//2 and
    n. Non-convergence is reported, never raised.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    eye = np.eye(op.dim, dtype=complex)
    if n == 1:
        return CesaroIterate(matrix=eye.copy(), converged=False,
                             residual=float("inf"), raw_mean=eye.copy())
    h = n // 2
    _, layout, sums = _orbit_sums(op, eye, n, 1)
    s_half, s_full = layout.columns_out(sums[:, -2:]).transpose(1, 0, 2)
    m_half, m_full = s_half / h, s_full / n
    residual = float(np.linalg.norm(m_full - m_half, 2))
    # extrapolate the O(1/n) running-mean tail: exact for the projector part
    extrapolated = (n * m_full - h * m_half) / (n - h)
    return CesaroIterate(matrix=extrapolated, converged=residual <= tol,
                         residual=residual, raw_mean=m_full)


@dataclass(frozen=True, eq=False)
class PowerLimit:
    """Limit of T^n, or the peripheral eigenvalues preventing one."""

    limit: np.ndarray | None = field(repr=False)
    diverges_peripheral: bool
    offending: tuple[complex, ...]


def power_limit(op: MarkovOperator, config: Config = DEFAULT) -> PowerLimit:
    """T^n converges iff the peripheral spectrum is exactly the 1-cluster.

    When it converges, the limit is the spectral projector at 1; otherwise
    the offending peripheral eigenvalues are reported.
    """
    summary = spectrum(op, config)
    if summary.defective_peripheral:
        raise DefectivePeripheral(
            "peripheral cluster with nontrivial Jordan structure")
    offending = tuple(c for c in summary.peripheral
                      if abs(c - 1.0) > config.tol_cluster)
    if offending:
        return PowerLimit(limit=None, diverges_peripheral=True,
                          offending=offending)
    return PowerLimit(limit=cesaro_projector_spectral(op, config),
                      diverges_peripheral=False, offending=())


def range_of_defect(op: MarkovOperator, config: Config = DEFAULT) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of T - id.

    The left singular vectors U[:, s > cut] of the memoized SVD of M - I,
    cut at ``tol_rank``. Its width is D minus the fixed-space dimension;
    strict ergodicity shows up as width exactly D - 1.
    """
    data = _spectral_data(op, config)
    s = data.defect_s
    return data.defect_u[:, s > _cut(s, config.tol_rank)]
