import numpy as np
import pytest

from cstar_mixing import (
    BoundedSequence,
    ValidationError,
    cesaro_abs,
    cesaro_sq,
    check_kvn_equivalence,
    extract_density_zero,
)
from cstar_mixing.sequences import (
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
