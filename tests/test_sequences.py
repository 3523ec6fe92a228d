import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_mixing import (
    AlgebraShape,
    BoundedSequence,
    DynamicalSystem,
    EquivalenceViolation,
    ValidationError,
    canonical_invariant_state,
    cesaro_abs,
    cesaro_sq,
    check_kvn_equivalence,
    extract_density_zero,
    random_unital_cp,
)
from cstar_mixing import mixing, orbit
from cstar_mixing.config import DEFAULT
from cstar_mixing.sequences import (
    _MAX_LEVEL,
    DensityZeroSet,
    KvnRecord,
    _clearly_flat_above,
    _dyadic_checkpoints,
    dyadic_decreasing,
)

HORIZON = 2 ** 14


def square_spike():
    # a_k = 1 exactly when k is a perfect square (1-based)
    a = np.zeros(HORIZON)
    k = 1
    while k * k <= HORIZON:
        a[k * k - 1] = 1.0
        k += 1
    return BoundedSequence(a)


def test_bounded_sequence_validation():
    with pytest.raises(ValidationError):
        BoundedSequence([])
    with pytest.raises(ValidationError):
        BoundedSequence([1.0, np.nan])
    with pytest.raises(ValidationError):
        BoundedSequence([np.inf])
    s = BoundedSequence([[1.0, -2.0], [0.5, 0.0]])
    assert len(s) == 4
    assert s.bound == 2.0
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_a_sequence_whose_squares_would_overflow_is_rejected():
    # 64 squares of 1e160 sum past the largest float, so the squared
    # criterion of the lemma would read inf; 64 squares of 1e153 do not
    with pytest.raises(ValidationError, match="overflow"):
        BoundedSequence(np.full(64, 1e160))
    big = BoundedSequence(np.full(64, 1e153))
    assert np.isfinite(cesaro_sq(big, 64))
    assert big.bound == 1e153


@pytest.mark.parametrize("values", [
    np.array([1j, 2j, 0.5j]),
    [1j],
    np.full(8, 0.5 + 0.5j),
    np.array([1.0, 2.0], dtype=complex),      # complex dtype, zero imaginary
    np.array([0.5, 1j], dtype=object),
    ["a"],
    ["1.5"],
    [None],
    [[1.0, 2.0], [3.0]],                      # ragged
])
def test_complex_or_non_numeric_terms_are_rejected(values):
    # a float cast would drop the imaginary parts (storing [0, 0, 0] for
    # the first), and numpy's own TypeError/ValueError would escape
    with pytest.raises(ValidationError):
        BoundedSequence(values)


def test_real_terms_of_every_numeric_kind_are_kept():
    for values in ([1, -2, 3], np.array([1, 2], dtype=np.uint8),
                   [True, False], np.array([0.5, 0.25], dtype=np.float32),
                   np.array([0.5, -1.0], dtype=object)):
        s = BoundedSequence(values)
        assert s.values.dtype == np.float64
        np.testing.assert_array_equal(s.values, np.asarray(values, dtype=float))
    # the stored terms are a private copy
    raw = np.array([1.0, 2.0])
    s = BoundedSequence(raw)
    raw[0] = 9.0
    assert s.values[0] == 1.0


def test_cesaro_means_oracle():
    s = BoundedSequence([3.0, -4.0, 0.0, 1.0])
    assert cesaro_abs(s, 2) == pytest.approx(3.5)
    assert cesaro_sq(s, 2) == pytest.approx(12.5)
    assert cesaro_abs(s, 4) == pytest.approx(2.0)
    assert cesaro_sq(s, 4) == pytest.approx(6.5)
    with pytest.raises(ValidationError):
        cesaro_abs(s, 0)
    with pytest.raises(ValidationError):
        cesaro_abs(s, 5)


def test_square_spike_thinning_checkpoints():
    dz = extract_density_zero(square_spike())
    assert dz.checkpoints == (
        (1, 0.5, 4),
        (2, 0.25, 16),
        (3, 0.125, 64),
        (4, 0.0625, 256),
        (5, 0.03125, 1024),
        (6, 0.015625, 4096),
    )
    assert not dz.failure_to_thin
    squares = np.array([k * k - 1 for k in range(1, 129)])
    assert np.array_equal(dz.indices, squares)
    assert dz.density(HORIZON) == pytest.approx(128 / HORIZON)


def test_square_spike_all_criteria_pass():
    rec = check_kvn_equivalence(square_spike(), HORIZON, tol=1e-3)
    assert rec.tending
    assert rec.verdict_abs and rec.verdict_sq and rec.verdict_off
    assert not rec.failure_to_thin
    # off the squares the sequence is identically zero
    assert max(rec.offj_trace) == 0.0


def test_zero_sequence_passes_everywhere():
    rec = check_kvn_equivalence(BoundedSequence(np.zeros(1024)), 1024, 1e-3)
    assert rec.verdict_abs and rec.verdict_sq and rec.verdict_off
    assert rec.final_density == 0.0


def test_constant_one_fails_everywhere_without_raising():
    rec = check_kvn_equivalence(BoundedSequence(np.ones(1024)), 1024, 1e-3)
    assert not rec.verdict_abs
    assert not rec.verdict_sq
    assert not rec.verdict_off
    assert rec.failure_to_thin
    assert rec.abs_trace[-1] == 1.0


def test_deep_constant_thins_to_empty_set():
    # 2e-3 sits between the level-9 and level-8 thresholds; the staircase
    # certifies levels 1..8 and the truncated tail keeps level 8, so the
    # thinned set comes out empty rather than full
    s = BoundedSequence(np.full(HORIZON, 2e-3))
    dz = extract_density_zero(s)
    assert not dz.failure_to_thin
    assert dz.checkpoints[-1][0] == 8
    assert dz.indices.size == 0
    rec = check_kvn_equivalence(s, HORIZON, tol=1e-6)
    assert not rec.verdict_abs
    assert not rec.verdict_sq
    assert not rec.verdict_off


def test_small_amplitude_split_verdict_does_not_raise():
    # amplitude chosen so mean|a| ~ 2A/pi clears tol but mean|a|^2 ~ A^2/2
    # sits just above tol^2; a legitimate finite-horizon split
    A = 1.5e-3
    k = np.arange(1, HORIZON + 1)
    rec = check_kvn_equivalence(BoundedSequence(A * np.abs(np.cos(k))),
                                HORIZON, tol=1e-3)
    assert rec.verdict_abs
    assert not rec.verdict_sq
    assert rec.tending
    assert rec.abs_trace[-1] <= 1e-3
    assert rec.sq_trace[-1] > 1e-6


def test_harmonic_all_pass():
    k = np.arange(1, 2 ** 12 + 1)
    rec = check_kvn_equivalence(BoundedSequence(1.0 / k), 2 ** 12, tol=1e-3)
    assert rec.verdict_abs and rec.verdict_sq and rec.verdict_off


def test_geometric_decay_all_pass():
    k = np.arange(1, 513)
    rec = check_kvn_equivalence(BoundedSequence(0.5 ** k), 512, tol=1e-6)
    assert rec.verdict_abs and rec.verdict_sq and rec.verdict_off
    # partial sums are already within 2^-k of the full sum, so the running
    # mean halves at every doubling
    assert rec.abs_trace[-1] == pytest.approx(rec.abs_trace[-2] / 2, rel=1e-6)
    # so a decrease ratio below 1/2 rejects it
    strict = check_kvn_equivalence(BoundedSequence(0.5 ** k), 512, tol=1e-6,
                                   ratio=0.4)
    assert not strict.verdict_abs and not strict.tending


def test_dyadic_decreasing_cases():
    assert dyadic_decreasing([5.0], tol=10.0)
    assert not dyadic_decreasing([5.0], tol=1.0)
    assert dyadic_decreasing([4.0, 2.9], tol=1.0)
    assert not dyadic_decreasing([4.0, 3.5], tol=1.0)
    with pytest.raises(ValidationError):
        dyadic_decreasing([], tol=1.0)


@pytest.mark.parametrize("ratio", [10.0, 1.5, 0.0, -0.5, float("nan")])
def test_dyadic_decreasing_rejects_a_ratio_outside_the_unit_interval(ratio):
    # at ratio 10 a trace that grew fivefold would "tend to zero"
    with pytest.raises(ValidationError):
        dyadic_decreasing([1.0, 5.0], tol=0.1, ratio=ratio)


@pytest.mark.parametrize("tol", [-1e-3, float("inf"), float("nan")])
def test_dyadic_decreasing_rejects_a_negative_or_non_finite_tol(tol):
    with pytest.raises(ValidationError):
        dyadic_decreasing([1.0, 0.5], tol=tol)


def test_dyadic_decreasing_keeps_the_ends_of_its_ranges():
    assert dyadic_decreasing([1.0, 1.0], tol=0.1, ratio=1.0)
    assert not dyadic_decreasing([1.0, 1.0], tol=0.0, ratio=0.5)
    assert dyadic_decreasing([1.0, 0.0], tol=0.0)


@pytest.mark.parametrize("ratio", [2.0, 0.0, float("nan")])
def test_lemma_rejects_a_ratio_outside_the_unit_interval(ratio):
    # at ratio 2 a constant sequence would tend to zero
    with pytest.raises(ValidationError):
        check_kvn_equivalence(BoundedSequence(np.ones(64)), 64, tol=0.1,
                              ratio=ratio)


@pytest.mark.parametrize("tol", [-0.1, float("inf"), float("nan")])
def test_lemma_rejects_a_negative_or_non_finite_tol(tol):
    # tol = inf used to raise EquivalenceViolation, a disagreement
    with pytest.raises(ValidationError):
        check_kvn_equivalence(BoundedSequence(np.ones(64)), 64, tol=tol)


def test_clearly_flat_above_bands():
    assert _clearly_flat_above([8e-3, 8e-3], 1e-3)
    # falling trace is not a contradiction even when it ends high
    assert not _clearly_flat_above([8e-3, 4e-3], 1e-3)
    # inside the guard band
    assert not _clearly_flat_above([2e-3, 2e-3], 1e-3)
    assert _clearly_flat_above([5e-3], 1e-3)


def test_dyadic_checkpoints():
    assert _dyadic_checkpoints(64) == [4, 8, 16, 32, 64]
    assert _dyadic_checkpoints(100) == [6, 12, 25, 50, 100]
    assert _dyadic_checkpoints(7) == [7]


def test_record_traces_are_aligned():
    rec = check_kvn_equivalence(square_spike(), HORIZON, tol=1e-3)
    assert rec.checkpoints[0] == 4
    assert rec.checkpoints[-1] == HORIZON
    npts = len(rec.checkpoints)
    assert len(rec.abs_trace) == npts
    assert len(rec.sq_trace) == npts
    assert len(rec.offj_trace) == npts
    assert len(rec.density_trace) == npts
    assert all(0.0 <= d <= 1.0 for d in rec.density_trace)


def test_sandwich_holds_on_random_data():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(8, 4097))
        kind = trial % 5
        if kind == 0:
            vals = rng.uniform(-1, 1, size=n)
        elif kind == 1:
            vals = rng.normal(size=n) / np.arange(1, n + 1)
        elif kind == 2:
            vals = np.where(rng.random(n) < 0.05, rng.uniform(-1, 1, n), 0.0)
        elif kind == 3:
            vals = np.sin(np.arange(n) * rng.uniform(0.1, 3.0))
        else:
            vals = rng.uniform(0, 1) * np.ones(n)
        seq = BoundedSequence(vals)
        rec = check_kvn_equivalence(seq, n, tol=1e-3)
        for p in rec.checkpoints:
            ca, cs = cesaro_abs(seq, p), cesaro_sq(seq, p)
            assert ca * ca <= cs + 1e-12
            assert cs <= seq.bound * ca + 1e-12


# ---------------------------------------------------------------------------
# the lemma against a reference: the cumulative-sum implementation of the
# thinning and of the criteria, one mean and one fancy index per checkpoint
# ---------------------------------------------------------------------------

def _reference_certified_start(mask, target):
    dens = np.cumsum(mask) / np.arange(1, mask.size + 1)
    bad = np.flatnonzero(dens >= target)
    if bad.size == 0:
        return 0
    start = int(bad[-1]) + 1
    return start if start < mask.size else None


def _reference_extract_density_zero(seq):
    a = np.abs(seq.values)
    horizon = a.size
    checkpoints = []
    prev = 0
    for m in range(1, _MAX_LEVEL + 1):
        eps = 2.0 ** (-m)
        start = _reference_certified_start(a > eps, eps)
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


def _reference_check_kvn_equivalence(seq, n, tol, ratio=DEFAULT.dyadic_factor):
    pts = _dyadic_checkpoints(n)
    dz = _reference_extract_density_zero(seq)
    a = np.abs(seq.values)
    bound = seq.bound
    abs_tr, sq_tr, off_tr, dens_tr = [], [], [], []
    for p in pts:
        ca = cesaro_abs(seq, p)
        cs = cesaro_sq(seq, p)
        if ca * ca > cs + 1e-12 or cs > bound * ca + 1e-12:
            raise EquivalenceViolation(
                f"Cauchy-Schwarz sandwich violated at n = {p}: "
                f"mean|a| = {ca}, mean|a|^2 = {cs}, bound = {bound}")
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
    clear_fail = [_clearly_flat_above(abs_tr, tol),
                  _clearly_flat_above(sq_tr, max(tol * tol, bound * tol)),
                  dz.failure_to_thin or _clearly_flat_above(off_tr, tol)]
    if any(clear_pass) and any(clear_fail):
        raise EquivalenceViolation("criteria disagree")
    return KvnRecord(
        tending=v_abs, verdict_abs=v_abs, verdict_sq=v_sq, verdict_off=v_off,
        checkpoints=tuple(pts), abs_trace=tuple(abs_tr),
        sq_trace=tuple(sq_tr), offj_trace=tuple(off_tr),
        density_trace=tuple(dens_tr), failure_to_thin=dz.failure_to_thin,
        final_density=dz.density(n))


def _assert_same_as_reference(values, n=None, tol=1e-3):
    seq = BoundedSequence(values)
    n = len(seq) if n is None else n
    got, ref = extract_density_zero(seq), _reference_extract_density_zero(seq)
    assert got.checkpoints == ref.checkpoints
    assert got.failure_to_thin == ref.failure_to_thin
    assert np.array_equal(got.mask, ref.mask)
    assert np.array_equal(got.profile, ref.profile)
    try:
        want = _reference_check_kvn_equivalence(seq, n, tol)
    except EquivalenceViolation:
        with pytest.raises(EquivalenceViolation):
            check_kvn_equivalence(seq, n, tol)
        return
    rec = check_kvn_equivalence(seq, n, tol)
    # == on every field: the traces are the same floats, not close ones
    for f in dataclasses.fields(KvnRecord):
        assert getattr(rec, f.name) == getattr(want, f.name), f.name


def _corpus():
    k = np.arange(1, HORIZON + 1)
    yield "square_spike", square_spike().values
    yield "zeros", np.zeros(1024)
    yield "ones", np.ones(1024)
    yield "constant_2^-9", np.full(HORIZON, 2.0 ** -9)
    yield "constant_2e-3", np.full(HORIZON, 2e-3)
    yield "cos", 1.5e-3 * np.abs(np.cos(k))
    yield "harmonic", 1.0 / k[:4096]
    yield "geometric", 0.5 ** k[:512]
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(8, 4097))
        kind = trial % 5
        if kind == 0:
            vals = rng.uniform(-1, 1, size=n)
        elif kind == 1:
            vals = rng.normal(size=n) / np.arange(1, n + 1)
        elif kind == 2:
            vals = np.where(rng.random(n) < 0.05, rng.uniform(-1, 1, n), 0.0)
        elif kind == 3:
            vals = np.sin(np.arange(n) * rng.uniform(0.1, 3.0))
        else:
            vals = rng.uniform(0, 1) * np.ones(n)
        yield f"random_{trial}", vals
    # exact powers of two sit on a threshold: 2^-l is not above 2^-l, and
    # its frexp mantissa is 1/2
    powers = 2.0 ** -rng.integers(0, 16, size=3000)
    yield "powers", powers
    yield "powers_and_neighbours", np.concatenate(
        [powers, np.nextafter(powers, 0), np.nextafter(powers, 1)])
    for level in (1, 4, 9, 12):
        yield f"constant_2^-{level}", np.full(4096, 2.0 ** -level)
    # isolated spikes above a floor, at spacings that certify some levels
    for spacing in (3, 17, 100, 1000):
        vals = np.full(4096, 1e-9)
        vals[::spacing] = 1.0
        yield f"spikes_{spacing}", vals


@pytest.mark.parametrize("name,values", list(_corpus()),
                         ids=[name for name, _ in _corpus()])
def test_lemma_matches_the_reference_on_the_corpus(name, values):
    _assert_same_as_reference(values)
    # horizons shorter than the sequence, powers of two and not
    size = np.asarray(values).size
    for n in {size // 2, size - 1, 3 * size // 4 + 1, 1}:
        if n >= 1:
            _assert_same_as_reference(values, n=n)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(
           st.floats(-1.0, 1.0, allow_nan=False),
           st.sampled_from([0.0, 2.0 ** -1, 2.0 ** -3, 2.0 ** -7, 1.0,
                            np.nextafter(2.0 ** -3, 1), 1e-300])),
           min_size=1, max_size=700),
       st.floats(0.0, 1.0),
       st.sampled_from([1e-3, 0.1, 1e-6]))
def test_lemma_matches_the_reference_on_drawn_sequences(values, frac, tol):
    n = max(1, int(round(frac * len(values))))
    _assert_same_as_reference(np.array(values), n=n, tol=tol)


@pytest.mark.parametrize("kraus_count", [1, 2, 3])
@pytest.mark.parametrize("blocks", [[2], [3], [1, 1, 2], [4]])
def test_lemma_matches_the_reference_on_correlation_series(blocks, kraus_count):
    # the 4,096-step series |phi(y T^k x) - phi(y) phi(x)| that the weak
    # mixing estimator hands to the lemma
    op = random_unital_cp(AlgebraShape(blocks), kraus_count, seed=5)
    system = DynamicalSystem(op, canonical_invariant_state(op))
    rows, consts, x0 = mixing._correlation_probes(
        system, np.random.default_rng(0), DEFAULT)
    series = orbit._orbit_pairings(system.operator, rows, x0,
                                   DEFAULT.estimator_n) - consts
    for j in range(series.shape[1]):
        _assert_same_as_reference(np.abs(series[:, j]),
                                  tol=DEFAULT.estimator_abs)
