"""Cesàro means and density-zero thinning for bounded real sequences.

Everything here has finite-horizon semantics: a sequence is a finite array,
"tends to zero" means the dyadic-decrease test below, and density statements
are about prefixes of the data actually given. No infinite-limit claims are
made on behalf of the caller.

The thinning construction is the standard staircase: at level m the threshold
is eps_m = 2^-m, J_m = {k : |a_k| > eps_m}, and the checkpoint N_m is the
first index from which the running density of J_m stays below 2^-m for the
rest of the horizon. Between consecutive checkpoints the emitted set J uses
the next level's threshold; past the last checkpoint it keeps the last
certified level, so every segment's density claim is backed by the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .errors import EquivalenceViolation, ValidationError

__all__ = [
    "BoundedSequence",
    "DensityZeroSet",
    "KvnRecord",
    "cesaro_abs",
    "cesaro_sq",
    "check_kvn_equivalence",
    "dyadic_decreasing",
    "extract_density_zero",
]

# Levels below 2^-60 are beneath float64 resolution for O(1) data.
_MAX_LEVEL = 60

# Disagreement bands for the three-criteria check: a criterion is only
# "clearly not vanishing" when its final value sits at least _GUARD times
# above its tolerance AND the trace is flat (ratio above _FLAT). Values
# inside the band are borderline and never raise.
_GUARD = 4.0
_FLAT = 0.9


@dataclass(frozen=True, eq=False)
class BoundedSequence:
    """A finite real sequence a_1..a_N together with its sup bound."""

    values: np.ndarray

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size < 1:
            raise ValidationError("sequence must have at least one term")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("sequence terms must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def bound(self) -> float:
        return float(np.max(np.abs(self.values)))


def _check_horizon(seq: BoundedSequence, n: int) -> int:
    n = int(n)
    if not 1 <= n <= len(seq):
        raise ValidationError(f"n = {n} outside 1..{len(seq)}")
    return n


def cesaro_abs(seq: BoundedSequence, n: int) -> float:
    """Mean of |a_k| over the first n terms."""
    n = _check_horizon(seq, n)
    return float(np.mean(np.abs(seq.values[:n])))


def cesaro_sq(seq: BoundedSequence, n: int) -> float:
    """Mean of |a_k|^2 over the first n terms."""
    n = _check_horizon(seq, n)
    return float(np.mean(np.abs(seq.values[:n]) ** 2))


@dataclass(frozen=True, eq=False)
class DensityZeroSet:
    """Thinned index set with its running-density profile.

    ``mask[k]`` marks membership of the (0-based) index k, ``profile[k]`` is
    |J ∩ {0..k}| / (k+1), and ``checkpoints`` records the established levels
    as (level, threshold, start) with ``start`` the 0-based index from which
    that level's density certificate holds. ``failure_to_thin`` is set when
    not even the first level could be certified anywhere in the horizon; the
    mask then falls back to the raw level-1 threshold set.
    """

    mask: np.ndarray
    profile: np.ndarray
    checkpoints: tuple[tuple[int, float, int], ...]
    failure_to_thin: bool

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def density(self, n: int) -> float:
        if not 1 <= n <= self.profile.size:
            raise ValidationError(f"n = {n} outside 1..{self.profile.size}")
        return float(self.profile[n - 1])


def _first_certified_start(mask: np.ndarray, target: float) -> int | None:
    """0-based index from which running density of mask stays < target."""
    dens = np.cumsum(mask) / np.arange(1, mask.size + 1)
    bad = np.flatnonzero(dens >= target)
    if bad.size == 0:
        return 0
    start = int(bad[-1]) + 1
    return start if start < mask.size else None


def extract_density_zero(seq: BoundedSequence) -> DensityZeroSet:
    """Staircase union of thresholded sets, certified level by level.

    Segment [N_m, N_{m+1}) of the result takes the indices whose |a_k|
    exceeds the level-(m+1) threshold. The loop stops at the first level
    whose certificate does not fit inside the horizon, and the tail past
    the last checkpoint stays at the last certified threshold: descending
    once more would emit a set with no density bound at all (for a
    sequence hovering just above an uncertified threshold, the whole
    tail).
    """
    a = np.abs(seq.values)
    horizon = a.size
    checkpoints: list[tuple[int, float, int]] = []
    prev = 0
    for m in range(1, _MAX_LEVEL + 1):
        eps = 2.0 ** (-m)
        start = _first_certified_start(a > eps, eps)
        if start is None:
            break
        start = max(start, prev)
        if start >= horizon:
            break
        checkpoints.append((m, eps, start))
        prev = start

    if not checkpoints:
        mask = a > 0.5
        profile = np.cumsum(mask) / np.arange(1, horizon + 1)
        return DensityZeroSet(mask, profile, (), True)

    mask = np.zeros(horizon, dtype=bool)
    # Segment boundaries: level m+1's threshold applies from N_m up to the
    # next checkpoint (the first segment, before N_1, uses level 1).
    starts = [0] + [c[2] for c in checkpoints]
    levels = [1] + [c[0] + 1 for c in checkpoints]
    levels[-1] = checkpoints[-1][0]
    starts.append(horizon)
    for seg in range(len(levels)):
        lo, hi = starts[seg], starts[seg + 1]
        if lo < hi:
            mask[lo:hi] = a[lo:hi] > 2.0 ** (-levels[seg])
    profile = np.cumsum(mask) / np.arange(1, horizon + 1)
    return DensityZeroSet(mask, profile, tuple(checkpoints), False)


def dyadic_decreasing(trace, tol: float,
                      ratio: float = DEFAULT.dyadic_factor) -> bool:
    """Finite-horizon "tends to zero" test on a coarse-to-fine dyadic trace.

    Passes if the finest value is at most tol outright, or dropped to at
    most ``ratio`` times the previous checkpoint's value.
    """
    vals = [float(v) for v in trace]
    if not vals:
        raise ValidationError("empty trace")
    last = vals[-1]
    if last <= tol:
        return True
    if len(vals) == 1:
        return False
    return last <= ratio * vals[-2]


@dataclass(frozen=True, eq=False)
class KvnRecord:
    """Joint verdict of the three vanishing criteria with their traces.

    ``tending`` is the verdict of the mean-of-|a| criterion, the primary
    one; ``verdict_abs``/``verdict_sq``/``verdict_off`` carry all three
    separately. Traces are sampled at the dyadic checkpoints listed in
    ``checkpoints`` (coarse to fine). ``offj_trace`` holds trailing-window
    maxima of |a_k| off the thinned set, ``density_trace`` the thinned
    set's running density at the same checkpoints.
    """

    tending: bool
    verdict_abs: bool
    verdict_sq: bool
    verdict_off: bool
    checkpoints: tuple[int, ...]
    abs_trace: tuple[float, ...]
    sq_trace: tuple[float, ...]
    offj_trace: tuple[float, ...]
    density_trace: tuple[float, ...]
    failure_to_thin: bool
    final_density: float


def _dyadic_checkpoints(n: int) -> list[int]:
    pts = [n]
    while pts[-1] >= 8:
        pts.append(pts[-1] // 2)
    return pts[::-1]


def _clearly_flat_above(trace: list[float], tol: float) -> bool:
    """True when the trace ends well above tol without falling: the only
    pattern that can honestly contradict a criterion that passed."""
    if trace[-1] < _GUARD * tol:
        return False
    return len(trace) < 2 or trace[-1] > _FLAT * trace[-2]


def check_kvn_equivalence(seq: BoundedSequence, n: int, tol: float,
                          ratio: float = DEFAULT.dyadic_factor) -> KvnRecord:
    """Check that the three vanishing criteria agree on the data.

    Criteria: the Cesàro mean of |a_k| at tolerance tol, the Cesàro mean of
    |a_k|^2 at tol^2 (squaring keeps the thresholds aligned on the same
    amplitude scale), and the off-thinned-set criterion: trailing-window
    maxima of |a_k| off the thinned set vanish AND the set's own running
    density does. All use ``dyadic_decreasing`` at ``ratio``; the
    Cauchy-Schwarz sandwich between the two means is asserted at every
    checkpoint.

    The criteria share a limit but not a finite-horizon scale, so near the
    tolerances their boolean verdicts can split on legitimate data. A
    violation is therefore only raised for an unambiguous conflict: one
    criterion passed outright (final value under its tolerance) while
    another ended flat at _GUARD times its own. Borderline splits are
    reported through the traces, not raised.
    """
    n = _check_horizon(seq, n)
    pts = _dyadic_checkpoints(n)
    dz = extract_density_zero(seq)
    a = np.abs(seq.values)
    bound = seq.bound

    abs_tr, sq_tr, off_tr, dens_tr = [], [], [], []
    for p in pts:
        ca = cesaro_abs(seq, p)
        cs = cesaro_sq(seq, p)
        # Exact inequalities up to float roundoff.
        if ca * ca > cs + 1e-12 or cs > bound * ca + 1e-12:
            raise EquivalenceViolation(
                f"Cauchy-Schwarz sandwich violated at n = {p}: "
                f"mean|a| = {ca}, mean|a|^2 = {cs}, bound = {bound}"
            )
        window = np.arange(p // 2, p)
        off = window[~dz.mask[window]]
        off_tr.append(float(a[off].max()) if off.size else 0.0)
        dens_tr.append(dz.density(p))
        abs_tr.append(ca)
        sq_tr.append(cs)

    v_abs = dyadic_decreasing(abs_tr, tol, ratio)
    v_sq = dyadic_decreasing(sq_tr, tol * tol, ratio)
    v_off = (not dz.failure_to_thin) and dyadic_decreasing(off_tr, tol, ratio) \
        and dyadic_decreasing(dens_tr, tol, ratio)
    clear_pass = [v_abs and abs_tr[-1] <= tol,
                  v_sq and sq_tr[-1] <= tol * tol,
                  v_off and off_tr[-1] <= tol]
    # A vanished mean of |a| only forces mean|a|^2 <= bound * tol (the
    # sandwich), so the squared criterion cannot honestly contradict it
    # below that scale.
    clear_fail = [_clearly_flat_above(abs_tr, tol),
                  _clearly_flat_above(sq_tr, max(tol * tol, bound * tol)),
                  dz.failure_to_thin or _clearly_flat_above(off_tr, tol)]
    if any(clear_pass) and any(clear_fail):
        raise EquivalenceViolation(
            f"criteria disagree: mean|a| tending = {v_abs}, "
            f"mean|a|^2 tending = {v_sq}, off-thinned-set tending = {v_off}",
            traces={
                "checkpoints": pts,
                "abs": abs_tr,
                "sq": sq_tr,
                "off_thinned": off_tr,
                "density": dens_tr,
            },
        )
    return KvnRecord(
        tending=v_abs,
        verdict_abs=v_abs,
        verdict_sq=v_sq,
        verdict_off=v_off,
        checkpoints=tuple(pts),
        abs_trace=tuple(abs_tr),
        sq_trace=tuple(sq_tr),
        offj_trace=tuple(off_tr),
        density_trace=tuple(dens_tr),
        failure_to_thin=dz.failure_to_thin,
        final_density=dz.density(n),
    )
