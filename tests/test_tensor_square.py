"""The factored tensor-square routes against their explicit twins.

``tensor`` records its factors, and the spectral data and estimator orbits
of the product then run on them. ``from_superoperator`` on the same matrix
gives an operator without factors, which takes the explicit route: one
Schur form of the product matrix and orbit steps by that matrix.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import cstar_mixing.mixing as mixing
from cstar_mixing import (
    AlgebraShape,
    DynamicalSystem,
    Unsupported,
    canonical_invariant_state,
    classify,
    example2,
    from_kraus,
    from_superoperator,
    random_unital_cp,
    spectrum,
    tensor,
)
from cstar_mixing.config import DEFAULT
from cstar_mixing.mixing import _orbit
from cstar_mixing.spectral import _spectral_data


def _periodic_channel():
    # cycles the three blocks of (2,2,2) after a unital channel on each, so
    # the cube roots of unity sit on the peripheral circle
    parts = [random_unital_cp(AlgebraShape([2]), 2, seed=90 + i).kraus
             for i in range(3)]
    shift = np.kron(np.roll(np.eye(3), 1, axis=0), np.eye(2))
    kraus = [shift @ scipy.linalg.block_diag(*blocks)
             for blocks in zip(*parts)]
    return from_kraus(AlgebraShape([2, 2, 2]), kraus)


def _oracle_channels():
    for blocks in ([2], [3], [1, 1, 2], [2, 3], [4]):
        for kraus in (1, 2, 3, 4):
            yield pytest.param(
                random_unital_cp(AlgebraShape(blocks), kraus,
                                 seed=80 + kraus + 5 * len(blocks)),
                id=f"{''.join(map(str, blocks))}-kraus{kraus}")
    yield pytest.param(example2(12, 5)[0].operator, id="example2")
    yield pytest.param(_periodic_channel(), id="periodic")


CHANNELS = list(_oracle_channels())


def _system(op):
    return DynamicalSystem(op, canonical_invariant_state(op))


def _explicit(op):
    """The same channel without factors. Its positivity is declared, not
    Choi-tested: the factors are verified, and the Choi matrix of example
    2's square (144 one-point blocks) would be 20736 x 20736."""
    return from_superoperator(op.shape, op.matrix)


def _matched(a, b):
    """Distances of the closest pairing of two equally long point sets."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    assert a.shape == b.shape
    dist = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(dist)
    return dist[rows, cols], cols


def test_periodic_channel_is_periodic():
    peripheral = spectrum(_periodic_channel()).peripheral
    roots = np.exp(2j * np.pi * np.arange(3) / 3)
    assert len(peripheral) == 3
    assert np.max(_matched(peripheral, roots)[0]) <= 1e-10


@pytest.mark.parametrize("op", CHANNELS)
def test_factored_spectrum_matches_explicit(op):
    square = tensor(op, op)
    assert square.factors == (op, op)
    got, want = spectrum(square), spectrum(_explicit(square))
    assert np.max(_matched(got.eigenvalues, want.eigenvalues)[0]) <= 1e-10
    # clusters as multisets of (center, multiplicity)
    (gc, gm), (wc, wm) = (zip(*s.clusters) for s in (got, want))
    dist, order = _matched(gc, wc)
    assert np.max(dist) <= 1e-10
    assert list(gm) == [wm[i] for i in order]
    assert np.max(_matched(got.peripheral, want.peripheral)[0]) <= 1e-10
    assert got.fixed_space_dim == want.fixed_space_dim
    assert got.defective_peripheral is want.defective_peripheral is False
    assert np.max(np.abs(got.cesaro_matrix - want.cesaro_matrix)) <= 1e-10


@pytest.mark.parametrize("op", CHANNELS[:4] + CHANNELS[-2:])
def test_cluster_projectors_resolve_the_identity(op):
    data = _spectral_data(op, DEFAULT)
    projectors = [data.cluster_projector(i)
                  for i in range(len(data.summary.clusters))]
    scale = max(1.0, max(np.abs(p).max() for p in projectors))
    assert np.max(np.abs(sum(projectors) - np.eye(op.dim))) <= 1e-10 * scale
    for i, p in enumerate(projectors):
        assert np.max(np.abs(op.matrix @ p - p @ op.matrix)) <= 1e-10 * scale
        for j, q in enumerate(projectors):
            want = p if i == j else 0.0
            assert np.max(np.abs(p @ q - want)) <= 1e-9 * scale ** 2
    assert data.cluster_projector(0) is projectors[0]


@pytest.mark.parametrize("op", CHANNELS)
def test_factored_orbit_steps_match_the_matrix(op):
    square = tensor(op, op)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((square.dim, 5)) \
        + 1j * rng.standard_normal((square.dim, 5))
    s, layout, strides = _orbit(square, x0, 16)
    x = x0
    for block in strides:
        got = layout.columns_out(block)
        for t in range(s):
            assert np.max(np.abs(got[:, 5 * t:5 * t + 5] - x)) <= 1e-12
            x = square.matrix @ x
    assert np.max(np.abs(x - np.linalg.matrix_power(square.matrix, 16)
                         @ x0)) <= 1e-12


def test_factored_orbit_of_two_different_factors():
    left = random_unital_cp(AlgebraShape([2]), 2, seed=1)
    right = random_unital_cp(AlgebraShape([1, 2]), 3, seed=2)
    product = tensor(left, right)
    x0 = np.random.default_rng(4).standard_normal((product.dim, 3)) + 0j
    s, layout, strides = _orbit(product, x0, 8)
    block = layout.columns_out(next(strides))
    for t in range(s):
        want = np.linalg.matrix_power(product.matrix, t) @ x0
        assert np.max(np.abs(block[:, 3 * t:3 * t + 3] - want)) <= 1e-12
    rows = np.random.default_rng(5).standard_normal((3, product.dim)) + 0j
    paired = np.einsum("jab,ajb->j", layout.rows_in(rows),
                       layout.columns_in(x0))
    assert np.max(np.abs(paired - np.einsum("jd,dj->j", rows, x0))) <= 1e-12


def _assert_witnesses_close(got, want, path="witnesses"):
    if isinstance(got, dict):
        assert got.keys() == want.keys(), path
        for key in got:
            # where the ergodicity residual is rounding noise, its argmax
            # pair is too
            if key == "violating_pair" and got["residual"] <= DEFAULT.tol_spectral:
                continue
            # clusters are listed by their lexsmallest point, and the points
            # of conjugate clusters share a real part up to rounding, so the
            # two routes may list a conjugate pair in either order
            if key == "peripheral":
                assert np.max(_matched(got[key], want[key])[0]) <= 1e-10, path
                continue
            _assert_witnesses_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_witnesses_close(g, w, f"{path}[{i}]")
    elif isinstance(got, (bool, str, Unsupported)) or got is None:
        assert got == want, path
    else:
        assert abs(got - want) <= 1e-10, path


@pytest.mark.parametrize("op", CHANNELS)
def test_factored_classify_matches_explicit(op, monkeypatch):
    system = _system(op)
    factored = classify(system, seed=4)
    real = mixing.tensor
    monkeypatch.setattr(mixing, "tensor", lambda a, b: _explicit(real(a, b)))
    explicit = classify(system, seed=4)
    assert factored.verdicts == explicit.verdicts
    assert factored.method_agreement == explicit.method_agreement
    _assert_witnesses_close(factored.witnesses, explicit.witnesses)


@pytest.mark.parametrize("system", [
    pytest.param(_system(random_unital_cp(AlgebraShape([4]), 3, seed=21)),
                 id="random4-kraus3"),
    pytest.param(example2(12, 5)[0], id="example2")])
def test_classify_runs_one_svd_and_no_eigensolve_on_the_tensor_square(
        system, monkeypatch):
    # the tensor square's spectral data comes from T's: no Schur form or
    # eigensolve of a D^2 x D^2 matrix, and only the SVD of its M - I
    shapes = {"schur": [], "eig": [], "svd": []}

    def recording(module, name):
        real = getattr(module, name)

        def wrapped(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return real(a, *args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    recording(scipy.linalg, "schur")
    recording(np.linalg, "eig")
    recording(np.linalg, "svd")
    classify(system)
    big = (system.shape.dim ** 2,) * 2
    sized = {name: sum(1 for s in seen if s[-2:] == big)
             for name, seen in shapes.items()}
    assert sized == {"schur": 0, "eig": 0, "svd": 1}
