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
    example1,
    example2,
    from_kraus,
    from_stochastic,
    from_superoperator,
    identity_channel,
    probe_problem1,
    random_unital_cp,
    tensor_system,
    verify_theorem,
)
from cstar_mixing import mixing, orbit
from cstar_mixing.algebra import _random_hermitian_vecs
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


@pytest.mark.parametrize("name", ["classify", "verify_theorem",
                                  "probe_problem1"])
def test_a_negative_seed_is_rejected_before_any_generator(name, monkeypatch):
    system = chain_system()
    run = {"classify": lambda: classify(system, seed=-1),
           "verify_theorem": lambda: verify_theorem("thm_3_2", [2], 1, seed=-1),
           "probe_problem1": lambda: probe_problem1([2], 1, seed=-1)}[name]

    def forbidden(*args, **kwargs):
        raise AssertionError("a generator was seeded")
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    with pytest.raises(ValidationError, match="seed"):
        run()


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



class _CountingGenerator:
    """A numpy generator that counts its ``standard_normal`` calls."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self._rng.standard_normal(*args, **kwargs)


def test_tensor_square_probes_are_one_draw_and_one_norm(monkeypatch):
    # example 2's tensor square has 144 blocks of side 1: its m probes are
    # one draw of the generator scaled by one norm call, and so are its
    # random states, whatever the number of blocks
    square = tensor_system(example2(12, 5)[0])
    assert square.shape.blocks == (1,) * 144
    m = DEFAULT.estimator_pairs
    real = mixing.hermitian_operator_norms
    norm_calls = []

    def counted(shape, stacked):
        norm_calls.append(stacked.shape)
        return real(shape, stacked)
    monkeypatch.setattr(mixing, "hermitian_operator_norms", counted)
    rng = _CountingGenerator(0)
    xs = mixing._random_probe_elements(square, rng, DEFAULT)
    assert rng.calls == 1
    assert norm_calls == [(m, 144)]
    assert xs.shape == (m, 144)
    np.testing.assert_allclose(real(square.shape, xs), 1.0, rtol=1e-15)
    rows = mixing._random_state_rows(square.shape, rng, m)
    assert rng.calls == 2
    assert rows.shape == (m, 144)


@pytest.mark.parametrize("make", [
    lambda: example1(8),
    lambda: sys_for(random_unital_cp(AlgebraShape([1, 1, 2]), 2, seed=3)),
], ids=["example1", "shape-1-1-2"])
def test_correlation_probes_are_the_per_probe_functionals(make):
    # bit for bit what one Functional per probe gives: the rows phi(y_j .)
    # from the blockwise products sigma y_j, the constants phi(y) phi(x)
    # from per-probe calls, and the centred columns x - phi(x) 1
    system = make()
    shape, phi = system.shape, system.state
    rows, consts, x0 = mixing._correlation_probes(
        system, np.random.default_rng(3), DEFAULT)
    rng = np.random.default_rng(3)
    xs = mixing._random_probe_elements(system, rng, DEFAULT)
    ys = mixing._random_probe_elements(system, rng, DEFAULT)
    one = AlgebraElement.identity(shape).vec()
    centred = []
    for row, c, xv, yv in zip(rows, consts, xs, ys):
        x = AlgebraElement.from_vec(shape, xv)
        y = AlgebraElement.from_vec(shape, yv)
        want = Functional(shape, [s @ b for s, b in zip(phi.blocks, y.blocks)])
        assert row.tobytes() == want.row().tobytes()
        assert c == phi(y) * phi(x)
        centred.append(x.vec() - phi(x) * one)
    assert x0.tobytes() == np.column_stack(list(xs)).tobytes()
    got = mixing._centered_columns(system, xs)
    assert got.tobytes() == np.column_stack(centred).tobytes()

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


def _all_window_maxima(system, seed):
    """The window maxima read off all 2w means by one norm call."""
    from cstar_mixing.orbit import _orbit_sums
    x0 = mixing._centered_columns(system, mixing._random_probe_elements(
        system, np.random.default_rng(seed), DEFAULT))
    n = DEFAULT.estimator_n
    w = DEFAULT.dyadic_window
    ks, layout, sums = _orbit_sums(system.operator, x0, n, w)
    means = layout.columns_out(sums[:, -2 * w:]) / ks[-2 * w:, None]
    norms = mixing.hermitian_operator_norms(system.shape,
                                            means.transpose(1, 2, 0))
    return norms[:w].max(axis=0), norms[w:].max(axis=0)


def _square_of(shape, kraus_count, seed=0):
    return tensor_system(sys_for(random_unital_cp(AlgebraShape(shape),
                                                  kraus_count, seed=seed)))


WINDOW_SYSTEMS = {
    "primitive_square": lambda: _square_of([4], 2),
    "unitary": lambda: sys_for(random_unital_cp(AlgebraShape([3]), 1, seed=0)),
    "unitary_square": lambda: _square_of([3], 1),
    "commutative_square": lambda: tensor_system(example2(12, 5)[0]),
    "blocks_2_3_square": lambda: _square_of([2, 3], 3),
    "zero_probes": lambda: sys_for(identity_channel(AlgebraShape([1]))),
}


@pytest.mark.parametrize("kind", WINDOW_SYSTEMS)
def test_window_maxima_equal_a_read_of_every_mean(kind):
    # the means ruled out by the Frobenius bound cannot hold the maximum, so
    # the maxima are the very floats a read of all 2w means gives
    system = WINDOW_SYSTEMS[kind]()
    half, full = _all_window_maxima(system, 3)
    _, wit = mixing._cesaro_norm_estimator(system, np.random.default_rng(3),
                                           DEFAULT)
    assert np.array_equal(wit["half"], half)
    assert np.array_equal(wit["final"], full)


@pytest.mark.parametrize("kraus_count", [2, 1])
def test_window_means_eigen_solved(monkeypatch, kraus_count):
    # on a primitive square every later mean is ruled out by its anchor's
    # bound, so 2 m means are eigen-solved; a unitary square falls back to
    # at most all 2 w m of them
    system = _square_of([4], kraus_count)
    m, w = DEFAULT.estimator_pairs, DEFAULT.dyadic_window
    real = mixing.hermitian_operator_norms
    evaluated = []

    def counted(shape, stacked):
        evaluated.append(stacked.size // stacked.shape[-1])
        return real(shape, stacked)
    monkeypatch.setattr(mixing, "hermitian_operator_norms", counted)
    mixing._cesaro_norm_estimator(system, np.random.default_rng(0), DEFAULT)
    # the first call scales the m probes to unit norm, the next reads the
    # two anchors per probe
    probes, anchors, *rest = evaluated
    assert probes == m and anchors == 2 * m
    if kraus_count > 1:
        assert rest == []
    else:
        assert anchors + sum(rest) <= 2 * w * m


@pytest.mark.parametrize("system", [
    lambda: sys_for(random_unital_cp(AlgebraShape([2, 3]), 2, seed=1)),
    lambda: _square_of([4], 2),
    lambda: _square_of([2, 3], 2),
])
def test_layout_coordinates_keep_the_frobenius_norm(system):
    # the window bound reads ||S_j - S_i||_F off the real coordinates: the
    # bases, and products of them for a square, are orthonormal
    system = system()
    x = _random_hermitian_vecs(system.shape, np.random.default_rng(4), 3).T
    coords = orbit._OrbitLayout.of(system.operator).columns_in(x)
    np.testing.assert_allclose(np.linalg.norm(coords, axis=(0, 2)),
                               np.linalg.norm(x, axis=0), rtol=1e-13)


def test_correlation_running_matches_step_by_step():
    op = random_unital_cp(AlgebraShape([2]), 3, seed=8)
    system = sys_for(op)
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    consts = rng.standard_normal(3) + 0j
    # orbit columns are Hermitian elements, as the estimators' probes are
    x = _random_hermitian_vecs(system.shape, rng, 3).T
    series = orbit._orbit_pairings(op, rows, x, 64) - consts
    for k in range(64):
        a = np.einsum("jd,dj->j", rows, x) - consts
        assert np.allclose(series[k], a, atol=1e-12)
        x = op.matrix @ x


CORRELATION_SYSTEMS = {
    "2": lambda: sys_for(random_unital_cp(AlgebraShape([2]), 2, seed=8)),
    "3-unitary": lambda: sys_for(random_unital_cp(AlgebraShape([3]), 1, seed=8)),
    "112": lambda: sys_for(random_unital_cp(AlgebraShape([1, 1, 2]), 3, seed=8)),
    "23": lambda: sys_for(random_unital_cp(AlgebraShape([2, 3]), 2, seed=8)),
    "square-3": lambda: _square_of([3], 2, seed=8),
}


@pytest.mark.parametrize("name", CORRELATION_SYSTEMS)
def test_correlation_running_matches_step_by_step_over_the_horizon(name):
    # n = 4096: 64 baby steps and 64 giant rows, against 4096 steps of the
    # complex matrix, on unit-norm probes and the estimator's own rows
    system = CORRELATION_SYSTEMS[name]()
    n = DEFAULT.estimator_n
    rows, consts, x = mixing._correlation_probes(
        system, np.random.default_rng(3), DEFAULT)
    series = orbit._orbit_pairings(system.operator, rows, x, n) - consts
    assert series.shape == (n, DEFAULT.estimator_pairs)
    m = system.operator.matrix
    for k in range(n):
        want = np.einsum("jd,dj->j", rows, x) - consts
        np.testing.assert_allclose(series[k], want, rtol=0, atol=1e-12)
        x = m @ x


def test_correlation_running_takes_about_two_products_per_doubling(monkeypatch):
    # log2(64) baby steps, log2(4096 / 64) giant steps and the squarings up
    # to T^2048, where a walk in strides of 64 took 69 steps
    calls = []
    for name in ("step", "squared"):
        real = getattr(orbit._OrbitLayout, name)

        def counted(self, *args, _real=real, _name=name):
            calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(orbit._OrbitLayout, name, counted)
    for system in (CORRELATION_SYSTEMS["3-unitary"](),
                   CORRELATION_SYSTEMS["square-3"]()):
        calls.clear()
        n = DEFAULT.estimator_n
        rows, consts, x = mixing._correlation_probes(
            system, np.random.default_rng(3), DEFAULT)
        orbit._orbit_pairings(system.operator, rows, x, n)
        assert len(calls) <= 2 * (n.bit_length() - 1) + 8


def test_eq2_reaches_the_lemma_through_its_module_attribute(monkeypatch):
    # perfbench times sequences.check_kvn_equivalence by replacing every
    # module attribute bound to it; the estimator must reach the lemma
    # through such an attribute, once per probe pair
    import sys as _sys
    from cstar_mixing import sequences
    original = sequences.check_kvn_equivalence
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)
    for name, module in list(_sys.modules.items()):
        if name == "cstar_mixing" or name.startswith("cstar_mixing."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    ok, trace = mixing._eq2_estimator(chain_system(),
                                      np.random.default_rng(0), DEFAULT)
    assert calls == [DEFAULT.estimator_n] * DEFAULT.estimator_pairs
    assert len(trace["per_pair"]) == DEFAULT.estimator_pairs


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
    x0 = _random_hermitian_vecs(system.shape, np.random.default_rng(1), 3).T
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
    got_half = _signed_means(system, rows, consts, x0, cfg).values[0]
    assert np.max(np.abs(got_half - half)) <= 1e-12

    # state mean: random states psi against phi(x)
    rng = np.random.default_rng(6)
    xs = _random_probe_elements(system, rng, cfg)
    rows = np.stack([random_state(system.shape, rng).row() for _ in xs])
    consts = np.array([system.state(AlgebraElement.from_vec(system.shape, x))
                       for x in xs])
    x0 = np.column_stack(list(xs))
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
    x0 = _random_hermitian_vecs(system.shape, np.random.default_rng(2), 2).T
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


def _assert_norms_match_step_by_step(system):
    # past the stop the series holds the floor and the true norms lie in
    # [0, floor], so they differ by at most the floor; before it, the two
    # orbits differ by rounding, which on a unitary orbit of 4,096 steps
    # grows to about 1e-13 of its unit norm
    from cstar_mixing.algebra import operator_norms
    x = mixing._centered_columns(system, mixing._random_probe_elements(
        system, np.random.default_rng(1), DEFAULT))
    n = DEFAULT.estimator_n
    norms, floor_step, flat = mixing._orbit_norm_series(system, x, n)
    orbit = []
    for _ in range(n):
        orbit.append(x.T)
        x = system.operator.matrix @ x
    ref = operator_norms(system.shape, np.array(orbit))
    np.testing.assert_allclose(norms, ref, rtol=1e-12, atol=mixing._NORM_FLOOR)
    if floor_step is not None:
        assert np.all(norms[floor_step:] == mixing._NORM_FLOOR)
        assert np.max(ref[floor_step:]) <= mixing._NORM_FLOOR
    return flat


@pytest.mark.parametrize("kraus_count", [1, 2, 3, 4])
@pytest.mark.parametrize("blocks", [[3], [2, 3], [4]])
def test_stopped_orbit_norms_match_step_by_step(blocks, kraus_count):
    _assert_norms_match_step_by_step(
        sys_for(random_unital_cp(AlgebraShape(blocks), kraus_count, seed=0)))


@pytest.mark.parametrize("eps", [1e-15, 1e-14, 1e-12, 1e-9])
@pytest.mark.parametrize("blocks", [[3], [4]])
def test_filled_strides_of_near_isometric_orbits_match_step_by_step(blocks, eps):
    # (1 - eps) Ad_U + eps R loses about 64 eps of its norm over a stride
    # of 64: at 1e-15 and 1e-14 that is below the cut and every stride is
    # filled, at 1e-12 and 1e-9 it is far above it and every stride walked
    shape = AlgebraShape(blocks)
    u = random_unital_cp(shape, 1, seed=0).kraus[0]
    r = random_unital_cp(shape, 3, seed=1).kraus
    op = from_kraus(shape, [np.sqrt(1 - eps) * u]
                    + [np.sqrt(eps) * a for a in r])
    flat = _assert_norms_match_step_by_step(sys_for(op))
    assert flat == (DEFAULT.estimator_n // 64 if eps < 1e-13 else 0)


@pytest.mark.parametrize("op", [
    lambda: identity_channel(AlgebraShape([3])),
    lambda: identity_channel(AlgebraShape([1, 1, 2])),
    lambda: identity_channel(AlgebraShape([1, 1, 1])),
    lambda: from_stochastic(np.eye(4)[[1, 2, 3, 0]]),
], ids=["identity-3", "identity-112", "identity-111", "cycle-4"])
def test_zero_step_strides_match_step_by_step(op):
    # every stride is flat. On (3) and (1,1,2) the identity's real matrix
    # differs from I by up to 2.2e-16, so a stride's end norms differ by
    # rounding; on the commutative shapes the layout's basis is the standard
    # one, T's real matrix is exact, and every fill has step exactly 0
    system = sys_for(op())
    assert _assert_norms_match_step_by_step(system) == DEFAULT.estimator_n // 64
    if all(b == 1 for b in system.shape.blocks):
        x = mixing._centered_columns(system, mixing._random_probe_elements(
            system, np.random.default_rng(1), DEFAULT))
        norms, _, _ = mixing._orbit_norm_series(system, x, DEFAULT.estimator_n)
        assert np.all(norms == norms[0])


def _norm_series_by_full_walk(system, x0, n):
    """The mean-of-norms series with every stride walked: all rows up to the
    floor in one (n, m, d) array and one stacked eigvalsh over them."""
    from cstar_mixing.algebra import hermitian_operator_norms
    d, m = x0.shape
    s, layout, strides = orbit._orbit(system.operator, x0, n)
    traj = np.empty((n, m, d), dtype=complex)
    floor_step = None
    for b, x in zip(range(0, n, s), strides):
        traj[b:b + s] = layout.columns_out(x).T.reshape(s, m, d)
        if np.linalg.norm(traj[b + s - 1], axis=1).max() <= mixing._NORM_FLOOR:
            floor_step = b + s
            break
    walked = n if floor_step is None else floor_step
    norms = np.full((n, m), mixing._NORM_FLOOR)
    norms[:walked] = hermitian_operator_norms(system.shape, traj[:walked])
    return norms, floor_step


@pytest.mark.parametrize("blocks", [[3], [2, 3], [4]])
def test_decaying_orbit_norms_are_the_full_walks(blocks):
    # a decaying orbit has no flat stride, so its norms are the full walk's
    # bit for bit
    system = sys_for(random_unital_cp(AlgebraShape(blocks), 3, seed=0))
    x = mixing._centered_columns(system, mixing._random_probe_elements(
        system, np.random.default_rng(1), DEFAULT))
    n = DEFAULT.estimator_n
    norms, floor_step, flat = mixing._orbit_norm_series(system, x, n)
    ref, ref_floor_step = _norm_series_by_full_walk(system, x, n)
    assert flat == 0
    assert floor_step == ref_floor_step
    assert np.array_equal(norms, ref)


def test_flat_strides_evaluate_only_their_ends(monkeypatch):
    # a unitary conjugation keeps every norm, so each stride of 64 costs the
    # norms of its first and last rows, 2 m of them, and none of the others:
    # the rows evaluated, in whatever calls, are exactly the moved-out ends
    system = sys_for(random_unital_cp(AlgebraShape([3]), 1, seed=0))
    x = mixing._centered_columns(system, mixing._random_probe_elements(
        system, np.random.default_rng(0), DEFAULT))
    real = mixing.hermitian_operator_norms
    evaluated = []

    def counted(shape, stacked):
        evaluated.append(stacked.reshape(-1, stacked.shape[-1]))
        return real(shape, stacked)
    monkeypatch.setattr(mixing, "hermitian_operator_norms", counted)
    (d, m), n, s = x.shape, DEFAULT.estimator_n, 64
    _, floor_step, flat = mixing._orbit_norm_series(system, x, n)
    assert floor_step is None and flat == n // s
    rows = np.concatenate(evaluated)
    assert len(rows) == 2 * m * (n // s)
    _, layout, strides = orbit._orbit(system.operator, x, n)
    ends = np.r_[:m, (s - 1) * m:s * m]
    want = [layout.columns_out(block[:, ends]).T for block in strides]
    np.testing.assert_allclose(rows, np.concatenate(want), rtol=0, atol=1e-13)


def test_a_flat_orbit_is_evaluated_in_full_chunks(monkeypatch):
    # 64 flat strides in chunks of _CHUNK = 8: one norm call per chunk, on
    # the ends of its strides
    system = sys_for(random_unital_cp(AlgebraShape([3]), 1, seed=0))
    x = mixing._centered_columns(system, mixing._random_probe_elements(
        system, np.random.default_rng(0), DEFAULT))
    real = mixing.hermitian_operator_norms
    calls = []

    def counted(shape, stacked):
        calls.append(stacked.shape)
        return real(shape, stacked)
    monkeypatch.setattr(mixing, "hermitian_operator_norms", counted)
    n = DEFAULT.estimator_n
    _, floor_step, flat = mixing._orbit_norm_series(system, x, n)
    assert floor_step is None and flat == n // 64
    assert len(calls) == n // 64 // mixing._CHUNK == 8


def test_a_stride_is_filled_only_when_every_probe_is_flat():
    # swapping states 0 and 1 keeps e0 - e1 at norm 1, while states 2 and 3
    # mix and e2 - e3 shrinks by 0.98 a step: no stride is flat for both
    P = np.zeros((4, 4))
    P[0, 1] = P[1, 0] = 1.0
    P[2:, 2:] = [[0.99, 0.01], [0.01, 0.99]]
    op = from_stochastic(P)
    system = DynamicalSystem(op, Functional.uniform_state(op.shape))
    x = np.array([[1, -1, 0, 0], [0, 0, 1, -1]], dtype=complex).T
    n = DEFAULT.estimator_n
    norms, floor_step, flat = mixing._orbit_norm_series(system, x, n)
    assert floor_step is None and flat == 0
    np.testing.assert_allclose(norms[:, 0], 1.0, rtol=1e-12)
    np.testing.assert_allclose(norms[:, 1], 0.98 ** np.arange(n), rtol=1e-12,
                               atol=mixing._NORM_FLOOR)


def test_a_stride_that_reaches_the_floor_ends_its_chunk():
    # the shift (T x)_i = x_min(i+1, N-1) moves e_90 and e_120 to zero at
    # steps 91 and 121: the first stride is flat, so the next chunk may hold
    # two strides, but the second stride ends at the floor and the walk
    # stops there, as a stride-by-stride walk does
    N = 130
    P = np.zeros((N, N))
    P[np.arange(N), np.minimum(np.arange(N) + 1, N - 1)] = 1.0
    op = from_stochastic(P)
    system = DynamicalSystem(op, canonical_invariant_state(op))
    x = np.zeros((N, 2), dtype=complex)
    x[90, 0] = x[120, 1] = 1.0
    n = DEFAULT.estimator_n
    norms, floor_step, flat = mixing._orbit_norm_series(system, x, n)
    ref, ref_floor_step = _norm_series_by_full_walk(system, x, n)
    assert floor_step == ref_floor_step == 128 and flat == 1
    assert np.array_equal(norms, ref)


def test_the_norm_trace_reports_its_floor_step():
    rep = classify(chain_system())
    est = rep.witnesses["strictly_weak_mixing"]["estimator"]
    step = est["floor_step"]
    assert isinstance(step, int) and 0 < step < DEFAULT.estimator_n
    assert est["flat_strides"] == 0
    traces = rep.witnesses["phi_ergodic_equiv"]["traces"]
    assert traces["cesaro_of_norms"]["floor_step"] == step
    assert traces["cesaro_of_norms"]["flat_strides"] == 0
    rep = classify(sys_for(random_unital_cp(AlgebraShape([2]), 1, seed=43)))
    est = rep.witnesses["strictly_weak_mixing"]["estimator"]
    assert est["floor_step"] is None
    assert est["flat_strides"] == DEFAULT.estimator_n // 64
    traces = rep.witnesses["phi_ergodic_equiv"]["traces"]
    assert traces["cesaro_of_norms"]["flat_strides"] == est["flat_strides"]


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


def _fixed_space_grown(real):
    """Spectral data whose SVD fixed-space dimension is off by one: the
    rank route's source."""
    import dataclasses

    def run(*args, **kwargs):
        data = real(*args, **kwargs)
        summary = dataclasses.replace(
            data.summary, fixed_space_dim=data.summary.fixed_space_dim + 1)
        return dataclasses.replace(data, summary=summary)
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
    # The rank route, rank(T - id) = D - 1: its range-of-defect width is
    # read as D - fixed_space_dim from the spectral data's one SVD.
    pytest.param("check_strictly_ergodic", "_spectral_data",
                 _fixed_space_grown,
                 id="check_strictly_ergodic-range_of_defect-_fixed_space_grown"),
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
    power_norm, weak_power = mixing._power_estimators(
        system, np.random.default_rng(4), cfg)
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
        assert np.allclose(power_norm[1][key], want, atol=1e-12)
    want = np.abs(np.einsum("jd,dj->j", rows, np.linalg.matrix_power(m, 16) @ x_weak))
    assert np.allclose(weak_power[1]["at_full"], want, atol=1e-12)
    with pytest.raises(ValidationError):
        mixing._power_estimators(system, np.random.default_rng(4),
                                 cfg.replace(exact_power_n=24))
