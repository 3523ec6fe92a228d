"""The eight definition-based estimators, pinned as they decide today.

Each estimator is run on three systems (a primitive chain, the paper's
rotation example 2 and a unitary conjugation) at three Cesàro horizons, and
its verdict and witness key set are compared with the values recorded here.
The power estimators read the power horizon, not the Cesàro one, so their
verdicts repeat across the rows.
"""

import numpy as np
import pytest

from cstar_mixing import (
    AlgebraShape,
    DynamicalSystem,
    canonical_invariant_state,
    example2,
    from_stochastic,
    random_unital_cp,
)
from cstar_mixing import mixing
from cstar_mixing.config import DEFAULT


def sys_for(op):
    return DynamicalSystem(op, canonical_invariant_state(op))


def chain_system():
    return sys_for(from_stochastic(np.array([[0.7, 0.3], [0.4, 0.6]])))


SYSTEMS = {
    "chain": chain_system,
    "example2": lambda: example2(12, 5)[0],
    "unitary": lambda: sys_for(random_unital_cp(AlgebraShape([3]), 1, seed=3)),
}

# estimator -> its private seam (power estimators: an ``_observed_conditions``
# entry) and the keys of its witness
ESTIMATORS = {
    "eq1": ("_eq1_estimator", {"trace", "final"}),
    "eq2": ("_eq2_estimator", {"per_pair", "final_sq_means"}),
    "state_mean": ("_state_mean_estimator", {"trace"}),
    "mean_norm": ("_mean_norm_estimator",
                  {"trace", "final", "floor_step", "flat_strides"}),
    "cesaro_norm": ("_cesaro_norm_estimator", {"final", "half"}),
    "power_norm": (None, {"at_half", "at_full"}),
    "weak_power": (None, {"at_full"}),
    "dual_power": ("_dual_power_estimator", {"at_full"}),
}

# verdicts in ESTIMATORS order, T for True and F for False
VERDICTS = {
    ("chain", 8): "TTTTTTTT",
    ("chain", 100): "TTTTTTTT",
    ("chain", 4096): "TTTTTTTT",
    ("example2", 8): "FFFFTFFF",
    ("example2", 100): "TFTFTFFF",
    ("example2", 4096): "TFTFTFFF",
    ("unitary", 8): "FFFFTFFF",
    ("unitary", 100): "FFFFFFFF",
    ("unitary", 4096): "FFFFFFFF",
}


def run_estimator(name, system, cfg):
    """(verdict, witness) of one estimator, at generator seed 0."""
    seam, _ = ESTIMATORS[name]
    if seam is None:
        observed, traces, _ = mixing._observed_conditions(system, cfg, 0)
        return observed[name], traces[name]
    return getattr(mixing, seam)(system, np.random.default_rng(0), cfg)


@pytest.mark.parametrize("kind, n", list(VERDICTS))
def test_estimator_verdicts_and_witness_keys_are_pinned(kind, n):
    system = SYSTEMS[kind]()
    cfg = DEFAULT.replace(estimator_n=n)
    got, keys = "", {}
    for name, (_, want_keys) in ESTIMATORS.items():
        verdict, witness = run_estimator(name, system, cfg)
        assert isinstance(verdict, bool)
        got += "T" if verdict else "F"
        keys[name] = set(witness)
        assert keys[name] == want_keys, name
    assert got == VERDICTS[kind, n]


@pytest.mark.parametrize("n, tol, per_pair", [
    (5, DEFAULT.estimator_abs, [False] * 5),
    (6, 0.04, [True, False, True, False, False]),
    (7, DEFAULT.estimator_abs, [False] * 5),
])
def test_eq2_at_one_checkpoint_reads_the_final_mean_alone(n, tol, per_pair):
    # below 8 steps the lemma keeps one checkpoint, so a pair passes only
    # with its final mean of |a_k| under tol; the chain's means fall by half
    # from n/2 to n, which would pass a two-checkpoint rule
    cfg = DEFAULT.replace(estimator_n=n, dyadic_window=2, estimator_abs=tol)
    ok, witness = mixing._eq2_estimator(chain_system(),
                                        np.random.default_rng(0), cfg)
    assert witness["per_pair"] == per_pair
    assert ok is all(per_pair)
    assert len(witness["final_sq_means"]) == DEFAULT.estimator_pairs


def test_state_mean_trace_is_pinned():
    # no golden file holds this trace: the thm_3_2 trial drops it
    ok, witness = mixing._state_mean_estimator(
        chain_system(), np.random.default_rng(0),
        DEFAULT.replace(estimator_n=100))
    assert ok is True
    assert witness["trace"]["checkpoints"] == [8, 16, 32, 64]
    want = [
        [0.028343978874113218, 0.050636221207205456, 0.007678955479303307,
         0.006378728381912224, 0.1368437950439342],
        [0.014172919261283612, 0.025319771724839485, 0.0038397296477862275,
         0.003189573445140592, 0.06842638668266368],
        [0.007086459661146738, 0.012659885916916414, 0.0019198648321576695,
         0.001594786729434916, 0.03421319348860871],
        [0.0035432298305736465, 0.006329942958458179, 0.0009599324160792788,
         0.0007973933647168474, 0.017106596744304675],
    ]
    got = witness["trace"]["values"]
    assert all(type(v) is float for row in got for v in row)
    assert np.allclose(got, want, rtol=1e-9, atol=0)


@pytest.mark.parametrize("verdict", [False, True])
def test_every_estimator_verdict_follows_the_decision_function(monkeypatch,
                                                               verdict):
    from cstar_mixing import sequences
    monkeypatch.setattr(sequences, "decide", lambda *args, **kwargs: verdict)
    for kind in ("chain", "unitary"):
        system = SYSTEMS[kind]()
        got = {name: run_estimator(name, system, DEFAULT)[0]
               for name in ESTIMATORS}
        assert got == {name: verdict for name in ESTIMATORS}
