import threading

import numpy as np
import pytest

from cstar_mixing import (
    AlgebraElement,
    AlgebraShape,
    DynamicalSystem,
    Functional,
    PROPERTIES,
    RequiresCP,
    ShapeMismatch,
    THEOREM_NAMES,
    UnknownTheorem,
    Unsupported,
    ValidationError,
    canonical_invariant_state,
    check_ergodic,
    check_peripheral_obstruction,
    check_strictly_ergodic,
    check_weakly_mixing,
    classify,
    example2,
    from_stochastic,
    from_superoperator,
    identity_channel,
    probe_problem1,
    random_unital_cp,
    tensor_system,
    verify_theorem,
)
from cstar_mixing import mixing, orbit
from cstar_mixing.config import DEFAULT
from cstar_mixing.mixing import _corner_unital_cp


def sys_for(op):
    return DynamicalSystem(op, canonical_invariant_state(op))


def shift4_system():
    P = np.zeros((4, 4))
    for j in range(4):
        P[j, (j + 1) % 4] = 1.0
    op = from_stochastic(P)
    return DynamicalSystem(op, Functional.uniform_state(op.shape))


def chain_system():
    op = from_stochastic(np.array([[0.7, 0.3], [0.4, 0.6]]))
    return sys_for(op)


def test_shift_verdicts():
    rep = classify(shift4_system())
    assert rep.verdicts["ergodic"] is True
    assert rep.verdicts["strictly_ergodic"] is True
    assert rep.verdicts["weakly_mixing"] is False
    assert rep.verdicts["strictly_weak_mixing"] is False
    assert rep.verdicts["exact"] is False
    assert rep.verdicts["phi_ergodic_equiv"] is False
    ob = rep.witnesses["peripheral_obstruction"]
    assert not ob["clean"]
    assert abs(abs(ob["alpha"]) - 1.0) <= 1e-10
    assert abs(ob["alpha"] - 1.0) > 0.5
    assert ob["residual"] < 1e-9


def test_chain_verdicts():
    rep = classify(chain_system())
    assert all(rep.verdicts[p] is True for p in PROPERTIES)
    assert rep.witnesses["peripheral_obstruction"]["clean"]
    assert rep.witnesses["fixed_space_dim"] == 1
    assert all(rec["agreed"] for rec in rep.method_agreement.values())


def test_identity_verdicts():
    op = identity_channel(AlgebraShape([2]))
    system = DynamicalSystem(op, Functional.uniform_state(op.shape))
    rep = classify(system)
    assert all(rep.verdicts[p] is False for p in PROPERTIES)
    assert rep.witnesses["fixed_space_dim"] == 4


def test_swap_is_strictly_ergodic_but_not_mixing():
    op = from_stochastic(np.array([[0.0, 1.0], [1.0, 0.0]]))
    system = DynamicalSystem(op, Functional.uniform_state(op.shape))
    rep = classify(system)
    assert rep.verdicts["ergodic"] is True
    assert rep.verdicts["strictly_ergodic"] is True
    assert rep.verdicts["weakly_mixing"] is False
    assert rep.verdicts["strictly_weak_mixing"] is False
    ob = check_peripheral_obstruction(system)
    assert ob.alpha == pytest.approx(-1.0, abs=1e-10)
    assert ob.residual <= 1e-12


def test_example2_obstruction_takes_the_smallest_angle():
    # all eleven non-1 roots of unity are peripheral with |w| = 1 up to
    # rounding; the witness is the first one counterclockwise from 1
    ob = check_peripheral_obstruction(example2(12, 5)[0])
    assert not ob.clean
    assert ob.alpha == pytest.approx(np.exp(2j * np.pi / 12), abs=1e-10)
    assert ob.residual <= 1e-12


def test_correlation_modulus_estimator_reads_the_dyadic_factor():
    system = sys_for(random_unital_cp(AlgebraShape([2]), 2, seed=3))
    for factor in (0.75, 0.1):
        cfg = DEFAULT.replace(estimator_abs=1e-12, dyadic_factor=factor)
        eq1, _ = mixing._eq1_estimator(system, np.random.default_rng(0), cfg)
        eq2, _ = mixing._eq2_estimator(system, np.random.default_rng(0), cfg)
        assert eq1 == eq2 == (factor == 0.75)


def test_generic_cp_channel_is_exact():
    rep = classify(sys_for(random_unital_cp(AlgebraShape([2]), 3, seed=42)))
    assert all(rep.verdicts[p] is True for p in PROPERTIES)


def test_unitary_conjugation_is_nothing():
    rep = classify(sys_for(random_unital_cp(AlgebraShape([2]), 1, seed=43)))
    assert all(rep.verdicts[p] is False for p in PROPERTIES)


def test_system_validation():
    op = from_stochastic(np.array([[0.7, 0.3], [0.4, 0.6]]))
    with pytest.raises(ShapeMismatch):
        DynamicalSystem(op, Functional.uniform_state(AlgebraShape([2])))
    not_state = Functional.from_vec(op.shape, np.array([0.5, -0.5], complex))
    with pytest.raises(ValidationError):
        DynamicalSystem(op, not_state)
    drifting = Functional.from_vec(op.shape, np.array([0.2, 0.8], complex))
    with pytest.raises(ValidationError):
        DynamicalSystem(op, drifting)


def test_declared_positivity_limits_the_checks():
    P = np.array([[0.7, 0.3], [0.4, 0.6]])
    op = from_superoperator(AlgebraShape([1, 1]), P)
    assert not op.is_cp_verified()
    system = DynamicalSystem(op, canonical_invariant_state(op))
    with pytest.raises(RequiresCP):
        check_weakly_mixing(system)
    rep = classify(system)
    assert isinstance(rep.verdicts["weakly_mixing"], Unsupported)
    assert rep.method_agreement["weakly_mixing"]["agreed"]
    # spectral and norm routes still decide the rest
    assert rep.verdicts["ergodic"] is True
    assert rep.verdicts["strictly_weak_mixing"] is True
    tensor_route = rep.method_agreement["strictly_weak_mixing"]["routes"]["tensor"]
    assert isinstance(tensor_route, Unsupported)


def test_classify_is_deterministic():
    a = classify(chain_system(), seed=5)
    b = classify(chain_system(), seed=5)
    assert a.verdicts == b.verdicts
    ta = a.witnesses["ergodic"]["estimator"]
    tb = b.witnesses["ergodic"]["estimator"]
    assert ta == tb


def test_verify_runs_every_trial_in_the_calling_thread(monkeypatch):
    idents = []
    draw = mixing._ensemble_system

    def recording(*args):
        idents.append(threading.get_ident())
        return draw(*args)

    monkeypatch.setattr(mixing, "_ensemble_system", recording)
    rec = verify_theorem("thm_4_3", [2], trials=6, seed=11)
    assert rec.passes == 6
    assert len(idents) == 6
    assert set(idents) == {threading.get_ident()}
    assert mixing._thread_count() == 1


@pytest.mark.parametrize("name", THEOREM_NAMES)
@pytest.mark.parametrize("blocks", [[2], [1, 2]])
def test_verify_theorem_small_ensembles(name, blocks):
    rec = verify_theorem(name, blocks, trials=8, seed=3)
    assert rec.passes == 8
    assert rec.failures == 0
    assert rec.counterexample is None
    assert rec.shape == AlgebraShape(blocks)


def test_verify_theorem_rejects_bad_input():
    with pytest.raises(UnknownTheorem):
        verify_theorem("thm_9_9", [2], trials=1)
    with pytest.raises(ValidationError):
        verify_theorem("thm_3_2", [2], trials=0)


def test_probe_problem1_finds_nothing_and_is_deterministic():
    a = probe_problem1([2], trials=12, seed=0)
    b = probe_problem1([2], trials=12, seed=0)
    assert a.no_counterexample
    assert a.counterexample is None
    assert len(a.verdicts) == 12
    assert a.verdicts == b.verdicts
    # the mixed ensemble actually exercises both variants
    variants = {v["variant"] for v in a.verdicts}
    assert variants == {"plain", "corner"}


def test_corner_channel_has_non_faithful_invariant_state():
    op = _corner_unital_cp(AlgebraShape([3]), 2, 5, DEFAULT)
    assert op.is_cp_verified()
    rho = canonical_invariant_state(op)
    eigs = np.linalg.eigvalsh(rho.blocks[0])
    assert eigs[0] == pytest.approx(0.0, abs=1e-12)
    assert eigs[-1] > 0.5
    assert np.sum(eigs) == pytest.approx(1.0, abs=1e-12)


def test_tensor_system_squares_everything():
    system = chain_system()
    ts = tensor_system(system)
    assert ts.shape.dim == system.shape.dim ** 2
    assert ts.state(AlgebraElement.identity(ts.shape)) == pytest.approx(1.0)


def test_check_results_expose_routes():
    system = chain_system()
    res = check_ergodic(system)
    assert res.verdict is True
    assert res.routes == {"spectral": True, "estimator": True}
    se = check_strictly_ergodic(system)
    assert se.routes["rank"] is True
    assert se.routes["unique_state"] is True
    assert se.witnesses["fixed_space_dim"] == 1


def test_classify_builds_the_tensor_square_once(monkeypatch):
    import cstar_mixing.mixing as mixing
    real = mixing.tensor
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mixing, "tensor", counting)
    classify(example2(12, 5)[0])
    assert len(calls) == 1


def test_classify_factors_each_operator_once(monkeypatch):
    # one sorted Schur form (of T) and one SVD of M - I per operator (T and
    # its tensor square); the tensor square's clusters and projector come
    # from T's Schur form, so none of its clusters needs a rank SVD
    import scipy.linalg
    system = example2(12, 5)[0]
    counts = {"eigvals": 0, "schur": 0, "svd": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    counting(np.linalg, "eigvals")
    counting(np.linalg, "svd")
    counting(scipy.linalg, "schur")
    classify(system)
    assert counts["eigvals"] == 0
    assert counts["schur"] <= 2
    assert counts["svd"] <= 13


@pytest.mark.parametrize("make", [
    lambda: sys_for(random_unital_cp(AlgebraShape([4]), 3, seed=3)),
    lambda: example2(12, 5)[0],
], ids=["random-4-kraus-3", "example2"])
def test_classify_runs_each_shared_estimator_once(monkeypatch, make):
    # route C of strict weak mixing and condition (i) of phi_ergodic_equiv
    # are one trace, and phi_ergodic_equiv reads classify's exactness result
    import cstar_mixing.mixing as mixing
    system = make()
    counts = {"_mean_norm_estimator": 0, "_dual_power_estimator": 0}
    for name in counts:
        real = getattr(mixing, name)

        def wrapped(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mixing, name, wrapped)
    # no SVD of an orbit stack: the estimators' norms of Hermitian elements
    # go through eigvalsh, so every SVD holds fewer matrices than an orbit
    # has steps
    stacks = []
    real_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        stacks.append(int(np.prod(np.shape(a)[:-2])))
        return real_svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", svd)
    classify(system)
    assert counts == {"_mean_norm_estimator": 1, "_dual_power_estimator": 1}
    assert max(stacks) < DEFAULT.estimator_n


def test_cesaro_norm_estimator_matches_running_means():
    # reference: the running mean formed step by step, then block norms
    from cstar_mixing.algebra import operator_norms
    from cstar_mixing.mixing import (_cesaro_norm_estimator,
                                     _centered_columns,
                                     _random_probe_elements)
    cfg = DEFAULT.replace(estimator_n=64, dyadic_window=8)
    op = random_unital_cp(AlgebraShape([1, 2]), 2, seed=12)
    system = sys_for(op)
    ok, wit = _cesaro_norm_estimator(system, np.random.default_rng(5), cfg)
    x = _centered_columns(system, _random_probe_elements(
        system, np.random.default_rng(5), cfg))
    acc = np.zeros_like(x)
    means = []
    for k in range(64):
        acc = acc + x
        means.append(operator_norms(system.shape, (acc / (k + 1)).T))
        x = op.matrix @ x
    assert np.allclose(wit["half"], np.max(means[24:32], axis=0), atol=1e-12)
    assert np.allclose(wit["final"], np.max(means[56:64], axis=0), atol=1e-12)


def test_correlation_running_matches_step_by_step():
    from cstar_mixing.mixing import _correlation_running
    op = random_unital_cp(AlgebraShape([2]), 3, seed=8)
    system = sys_for(op)
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    consts = rng.standard_normal(3) + 0j
    x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    series = _correlation_running(system, rows, consts, x, 64)
    for k in range(64):
        a = np.einsum("jd,dj->j", rows, x) - consts
        assert np.allclose(series[k], a, atol=1e-12)
        x = op.matrix @ x


LINEAR_SYSTEMS = {
    "plain": lambda: sys_for(random_unital_cp(AlgebraShape([1, 2]), 2, seed=12)),
    "tensor_square": lambda: tensor_system(
        sys_for(random_unital_cp(AlgebraShape([2]), 3, seed=8))),
}


def _stepped_sums(matrix, x0, n):
    """S_1 .. S_n of the orbit of x0, one matrix product per step."""
    sums, acc, x = [], np.zeros_like(x0), x0
    for _ in range(n):
        acc = acc + x
        sums.append(acc)
        x = matrix @ x
    return sums


@pytest.mark.parametrize("kind", LINEAR_SYSTEMS)
@pytest.mark.parametrize("n, w", [(64, 8), (100, 8), (7, 3), (31, 5), (2, 1)])
def test_orbit_sums_match_step_by_step(kind, n, w):
    from cstar_mixing.orbit import _orbit_sums, _sample_lengths
    system = LINEAR_SYSTEMS[kind]()
    x0 = np.random.default_rng(1).standard_normal((system.shape.dim, 3)) + 0j
    ks, layout, sums = _orbit_sums(system.operator, x0, n, w)
    assert np.array_equal(ks, _sample_lengths(n, w))
    sums = layout.columns_out(sums)
    want = _stepped_sums(system.operator.matrix, x0, n)
    for i, k in enumerate(ks):
        assert np.max(np.abs(sums[:, i] - want[k - 1])) <= 1e-12


def _reference_trace(running, n, w):
    """Checkpoint trace and window maxima of a full running-mean array."""
    pts = [p for p in (8 * 2 ** i for i in range(20)) if p <= n]
    return ([running[p - 1] for p in pts], pts,
            running[n // 2 - w:n // 2].max(axis=0), running[n - w:].max(axis=0))


@pytest.mark.parametrize("kind", LINEAR_SYSTEMS)
@pytest.mark.parametrize("n", [64, 100])
def test_linear_estimators_match_step_by_step(kind, n):
    from cstar_mixing.algebra import operator_norms, random_state
    from cstar_mixing.mixing import (
        _cesaro_norm_estimator, _centered_columns, _correlation_probes,
        _eq1_estimator, _random_probe_elements, _signed_means,
        _state_mean_estimator)
    system = LINEAR_SYSTEMS[kind]()
    matrix = system.operator.matrix
    cfg = DEFAULT.replace(estimator_n=n, dyadic_window=8)
    ks = np.arange(1, n + 1)[:, None]

    def signed_reference(rows, consts, x0):
        sums = _stepped_sums(matrix, x0, n)
        running = np.array([np.abs(np.einsum("jd,dj->j", rows, s) - k * consts) / k
                            for k, s in zip(ks[:, 0], sums)])
        return _reference_trace(running, n, 8)

    def assert_trace(trace, values, pts):
        assert trace["checkpoints"] == pts
        assert np.max(np.abs(np.array(trace["values"]) - values)) <= 1e-12

    # eq1: probe pairs (x, y), and the shared signed-mean reader's half
    rows, consts, x0 = _correlation_probes(system, np.random.default_rng(5), cfg)
    values, pts, half, full = signed_reference(rows, consts, x0)
    _, wit = _eq1_estimator(system, np.random.default_rng(5), cfg)
    assert_trace(wit["trace"], values, pts)
    assert np.max(np.abs(np.array(wit["final"]) - full)) <= 1e-12
    _, got_half, _ = _signed_means(system, rows, consts, x0, cfg)
    assert np.max(np.abs(got_half - half)) <= 1e-12

    # state mean: random states psi against phi(x)
    rng = np.random.default_rng(6)
    xs = _random_probe_elements(system, rng, cfg)
    rows = np.stack([random_state(system.shape, rng).row() for _ in xs])
    consts = np.array([system.state(x) for x in xs])
    x0 = np.column_stack([x.vec() for x in xs])
    values, pts, _, _ = signed_reference(rows, consts, x0)
    _, wit = _state_mean_estimator(system, np.random.default_rng(6), cfg)
    assert_trace(wit["trace"], values, pts)

    # norm-Cesàro: operator norms of the running means of centred probes
    x0 = _centered_columns(system, _random_probe_elements(
        system, np.random.default_rng(7), cfg))
    means = np.array([operator_norms(system.shape, (s / k).T)
                      for k, s in zip(ks[:, 0], _stepped_sums(matrix, x0, n))])
    _, _, half, full = _reference_trace(means, n, 8)
    _, wit = _cesaro_norm_estimator(system, np.random.default_rng(7), cfg)
    assert np.max(np.abs(np.array(wit["half"]) - half)) <= 1e-12
    assert np.max(np.abs(np.array(wit["final"]) - full)) <= 1e-12


@pytest.mark.parametrize("kind", LINEAR_SYSTEMS)
@pytest.mark.parametrize("estimator", ["_eq1_estimator", "_state_mean_estimator",
                                       "_cesaro_norm_estimator"])
def test_linear_estimators_take_logarithmically_many_steps(monkeypatch, kind,
                                                           estimator):
    system = LINEAR_SYSTEMS[kind]()
    steps = []
    real_step = orbit._OrbitLayout.step

    def step(self, x):
        steps.append(x.shape)
        return real_step(self, x)
    monkeypatch.setattr(orbit._OrbitLayout, "step", step)
    n = DEFAULT.estimator_n
    assert n == 4096
    getattr(mixing, estimator)(system, np.random.default_rng(0), DEFAULT)
    assert 0 < len(steps) <= 6 * int(np.log2(n))


@pytest.mark.parametrize("n", [96, 100, 4096])
def test_orbit_blocks_follow_the_stride(n):
    from cstar_mixing.orbit import _orbit
    system = LINEAR_SYSTEMS["tensor_square"]()
    x0 = np.random.default_rng(2).standard_normal((system.shape.dim, 2)) + 0j
    s, layout, strides = _orbit(system.operator, x0, n)
    assert s == min(64, n & -n)
    x, count = x0, 0
    for block in strides:
        got = layout.columns_out(block)
        for t in range(s):
            assert np.max(np.abs(got[:, 2 * t:2 * t + 2] - x)) <= 1e-11
            x = system.operator.matrix @ x
        count += 1
    assert count == n // s


def test_mean_norm_orbit_stops_once_every_probe_is_at_the_floor(monkeypatch):
    # the first stride of 64 takes log2(64) = 6 steps (``_widen``), and each
    # later stride one step of T^64
    real_step = orbit._OrbitLayout.step
    steps = []

    def step(self, x):
        steps.append(x.shape)
        return real_step(self, x)
    monkeypatch.setattr(orbit._OrbitLayout, "step", step)

    def run(kraus_count):
        steps.clear()
        system = sys_for(random_unital_cp(AlgebraShape([3]), kraus_count, seed=0))
        _, trace = mixing._mean_norm_estimator(
            system, np.random.default_rng(0), DEFAULT)
        return trace["floor_step"], len(steps)

    n, s = DEFAULT.estimator_n, 64
    floor_step, count = run(3)
    assert floor_step is not None
    assert floor_step % s == 0 and floor_step <= 4 * s
    assert count == 6 + floor_step // s - 1
    # a unitary conjugation never decays, so it walks every stride
    floor_step, count = run(1)
    assert floor_step is None
    assert count == 6 + n // s - 1


@pytest.mark.parametrize("kraus_count", [1, 2, 3, 4])
@pytest.mark.parametrize("blocks", [[3], [2, 3], [4]])
def test_stopped_orbit_norms_match_step_by_step(blocks, kraus_count):
    # past the stop the series holds the floor and the true norms lie in
    # [0, floor], so they differ by at most the floor; before it, the two
    # orbits differ by rounding, which on a unitary orbit of 4,096 steps
    # grows to about 1e-13 of its unit norm
    from cstar_mixing.algebra import operator_norms
    system = sys_for(random_unital_cp(AlgebraShape(blocks), kraus_count, seed=0))
    x = mixing._centered_columns(system, mixing._random_probe_elements(
        system, np.random.default_rng(1), DEFAULT))
    n = DEFAULT.estimator_n
    norms, floor_step = mixing._orbit_norm_series(system, x, n)
    orbit = []
    for _ in range(n):
        orbit.append(x.T)
        x = system.operator.matrix @ x
    ref = operator_norms(system.shape, np.array(orbit))
    np.testing.assert_allclose(norms, ref, rtol=1e-12, atol=mixing._NORM_FLOOR)
    if floor_step is not None:
        assert np.all(norms[floor_step:] == mixing._NORM_FLOOR)
        assert np.max(ref[floor_step:]) <= mixing._NORM_FLOOR


def test_the_norm_trace_reports_its_floor_step():
    rep = classify(chain_system())
    step = rep.witnesses["strictly_weak_mixing"]["estimator"]["floor_step"]
    assert isinstance(step, int) and 0 < step < DEFAULT.estimator_n
    traces = rep.witnesses["phi_ergodic_equiv"]["traces"]
    assert traces["cesaro_of_norms"]["floor_step"] == step
    rep = classify(sys_for(random_unital_cp(AlgebraShape([2]), 1, seed=43)))
    assert rep.witnesses["strictly_weak_mixing"]["estimator"]["floor_step"] is None


def _flipped(real):
    """An estimator whose verdict is the opposite of ``real``'s."""
    def run(*args, **kwargs):
        ok, trace = real(*args, **kwargs)
        return not ok, trace
    return run


def _one_count_shifted(real):
    """Spectral data whose 1-cluster Schur count is off by one."""
    import dataclasses

    def run(*args, **kwargs):
        data = real(*args, **kwargs)
        return dataclasses.replace(data, one_count=data.one_count + 1)
    return run


def _one_column_short(real):
    """A range of T - id one dimension short of the true one."""
    def run(*args, **kwargs):
        return real(*args, **kwargs)[:, 1:]
    return run


def _state_doubled(real):
    """Invariant states listed twice, as if the fixed space were larger."""
    def run(*args, **kwargs):
        states = real(*args, **kwargs)
        return states + states
    return run


@pytest.mark.parametrize("check, source, corrupt", [
    ("check_ergodic", "_eq1_estimator", _flipped),
    ("check_strictly_ergodic", "_spectral_data", _one_count_shifted),
    ("check_strictly_ergodic", "_cesaro_norm_estimator", _flipped),
    ("check_strictly_ergodic", "range_of_defect", _one_column_short),
    ("check_strictly_ergodic", "invariant_states", _state_doubled),
    ("check_weakly_mixing", "_eq2_estimator", _flipped),
    ("check_strictly_weak_mixing", "_mean_norm_estimator", _flipped),
    ("check_exact", "_dual_power_estimator", _flipped),
])
def test_a_corrupted_route_raises_method_disagreement(monkeypatch, check,
                                                      source, corrupt):
    from cstar_mixing import MethodDisagreement
    from cstar_mixing import mixing
    system = chain_system()
    assert getattr(mixing, check)(system).verdict is True
    monkeypatch.setattr(mixing, source, corrupt(getattr(mixing, source)))
    with pytest.raises(MethodDisagreement):
        getattr(mixing, check)(system)


@pytest.mark.parametrize("check, source, path", [
    ("check_weakly_mixing", "_eq1_estimator",
     "weak mixing → tensor square → ergodicity: "),
    ("check_strictly_weak_mixing", "_cesaro_norm_estimator",
     "strict weak mixing → tensor square → strict ergodicity routes disagree"),
])
def test_a_nested_disagreement_names_its_path(monkeypatch, check, source, path):
    # the corrupted estimator is read only by the tensor square's check
    from cstar_mixing import MethodDisagreement
    monkeypatch.setattr(mixing, source, _flipped(getattr(mixing, source)))
    with pytest.raises(MethodDisagreement) as info:
        getattr(mixing, check)(chain_system())
    assert str(info.value).startswith(path)
    assert isinstance(info.value.__cause__, MethodDisagreement)


def _watch_tensor_squares(monkeypatch):
    """Weak references to every tensor-square system ``mixing`` builds."""
    import weakref
    from cstar_mixing import mixing
    real = mixing.tensor_system
    refs = []

    def watched(*args, **kwargs):
        ts = real(*args, **kwargs)
        refs.append(weakref.ref(ts))
        return ts
    monkeypatch.setattr(mixing, "tensor_system", watched)
    return refs


def test_classify_shares_the_tensor_square_and_drops_it_on_return(monkeypatch):
    import gc
    from cstar_mixing import mixing
    refs = _watch_tensor_squares(monkeypatch)
    classify(chain_system())
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
    assert mixing._MEMO.get() is None


def test_classify_reraises_a_disagreement_with_its_report(monkeypatch):
    import gc
    from cstar_mixing import MethodDisagreement
    from cstar_mixing import mixing
    refs = _watch_tensor_squares(monkeypatch)
    monkeypatch.setattr(mixing, "_dual_power_estimator",
                        _flipped(mixing._dual_power_estimator))
    with pytest.raises(MethodDisagreement) as info:
        classify(chain_system())
    agreement = info.value.report.method_agreement
    assert agreement["exact"]["agreed"] is False
    assert "exactness" in agreement["exact"]["detail"]
    assert all(agreement[name]["agreed"] for name in
               ("ergodic", "strictly_ergodic", "weakly_mixing",
                "strictly_weak_mixing"))
    assert "phi_ergodic_equiv" not in agreement
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
    assert mixing._MEMO.get() is None


def test_classify_calls_each_public_check_once(monkeypatch):
    from cstar_mixing import mixing
    system = chain_system()
    names = ("check_ergodic", "check_strictly_ergodic", "check_weakly_mixing",
             "check_strictly_weak_mixing", "check_exact",
             "check_phi_ergodic_equiv")
    calls = {name: 0 for name in names}
    for name in names:
        real = getattr(mixing, name)

        def counted(sys, *args, _name=name, _real=real, **kwargs):
            calls[_name] += sys is system
            return _real(sys, *args, **kwargs)
        monkeypatch.setattr(mixing, name, counted)
    classify(system)
    assert calls == {name: 1 for name in names}


def test_a_standalone_check_builds_its_own_square_and_trace(monkeypatch):
    from cstar_mixing import check_strictly_weak_mixing, mixing
    refs = _watch_tensor_squares(monkeypatch)
    traces = []
    real = mixing._mean_norm_estimator

    def counted(*args, **kwargs):
        traces.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(mixing, "_mean_norm_estimator", counted)
    res = check_strictly_weak_mixing(chain_system())
    assert res.routes == {"spectral": True, "tensor": True, "norm_cesaro": True}
    assert len(refs) == len(traces) == 1


def test_a_defective_one_cluster_is_a_numerical_failure():
    # one fixed direction, but eigenvalue 1 has algebraic multiplicity 3: the
    # spectral route (Schur count 3) and the rank route (rank D - 1) would
    # disagree, and the Jordan block must be reported before they are compared
    from cstar_mixing import DefectivePeripheral
    M = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
    op = from_superoperator(AlgebraShape([1, 1, 1]), M)
    phi = Functional.from_vec(op.shape, np.array([0.5, 0.0, 0.5], complex))
    with pytest.raises(DefectivePeripheral):
        check_strictly_ergodic(DynamicalSystem(op, phi))


def test_power_estimators_square_once_and_match_matrix_powers(monkeypatch):
    from cstar_mixing.algebra import operator_norms, random_state
    system = sys_for(random_unital_cp(AlgebraShape([1, 2]), 2, seed=12))
    cfg = DEFAULT.replace(exact_power_n=16)
    squarings = []
    real = orbit._OrbitLayout.squared

    def counted(self):
        squarings.append(self)
        return real(self)
    monkeypatch.setattr(orbit._OrbitLayout, "squared", counted)
    got = mixing._power_estimators(system, np.random.default_rng(4), cfg)
    # one ladder T, T^2, ..., T^16: T^8 and T^16 are its last two rungs
    assert len(squarings) == 4
    # the reference draws in the same order: norm probes, weak probes, states
    rng = np.random.default_rng(4)
    x_norm = mixing._centered_columns(
        system, mixing._random_probe_elements(system, rng, cfg))
    x_weak = mixing._centered_columns(
        system, mixing._random_probe_elements(system, rng, cfg))
    rows = np.stack([random_state(system.shape, rng).row()
                     for _ in range(cfg.estimator_pairs)])
    m = system.operator.matrix
    for key, n in (("at_half", 8), ("at_full", 16)):
        p = np.linalg.matrix_power(m, n)
        want = operator_norms(system.shape, (p @ x_norm).T)
        assert np.allclose(got["power_norm"][1][key], want, atol=1e-12)
    want = np.abs(np.einsum("jd,dj->j", rows, np.linalg.matrix_power(m, 16) @ x_weak))
    assert np.allclose(got["weak_power"][1]["at_full"], want, atol=1e-12)
    with pytest.raises(ValidationError):
        mixing._power_estimators(system, np.random.default_rng(4),
                                 cfg.replace(exact_power_n=24))
