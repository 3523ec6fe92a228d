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


def test_thread_env_does_not_change_results(monkeypatch):
    rec_default = verify_theorem("thm_4_3", [2], trials=6, seed=11)
    monkeypatch.setenv("CSTAR_MIXING_THREADS", "1")
    rec_serial = verify_theorem("thm_4_3", [2], trials=6, seed=11)
    assert rec_default.passes == rec_serial.passes == 6


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
    running, series = _correlation_running(system, rows, consts, x, 64,
                                           keep_series=True)
    cum = np.zeros(3, dtype=complex)
    for k in range(64):
        a = np.einsum("jd,dj->j", rows, x) - consts
        cum = cum + a
        assert np.allclose(series[k], a, atol=1e-12)
        assert np.allclose(running[k], np.abs(cum) / (k + 1), atol=1e-12)
        x = op.matrix @ x
