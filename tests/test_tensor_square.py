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
    Functional,
    Unsupported,
    canonical_invariant_state,
    cesaro_projector_spectral,
    classify,
    dual,
    example2,
    from_kraus,
    from_superoperator,
    functional_norm,
    identity_channel,
    invariant_states,
    random_unital_cp,
    spectrum,
    tensor,
)
from cstar_mixing.algebra import (
    _random_hermitian_vecs,
    hermitian_coordinates,
    pairing_coordinates,
)
from cstar_mixing.config import DEFAULT
from cstar_mixing.orbit import _orbit
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
    """The same channel without factors, Choi-tested on its matrix."""
    return from_superoperator(op.shape, op.matrix, "verified_cp")


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
    explicit = _explicit(square)
    got, want = spectrum(square), spectrum(explicit)
    assert np.max(_matched(got.eigenvalues, want.eigenvalues)[0]) <= 1e-10
    # clusters as multisets of (center, multiplicity)
    (gc, gm), (wc, wm) = (zip(*s.clusters) for s in (got, want))
    dist, order = _matched(gc, wc)
    assert np.max(dist) <= 1e-10
    assert list(gm) == [wm[i] for i in order]
    assert np.max(_matched(got.peripheral, want.peripheral)[0]) <= 1e-10
    assert got.fixed_space_dim == want.fixed_space_dim
    assert got.defective_peripheral is want.defective_peripheral is False
    assert np.max(np.abs(cesaro_projector_spectral(square)
                         - cesaro_projector_spectral(explicit))) <= 1e-10


@pytest.mark.parametrize("op", CHANNELS[:4] + CHANNELS[-2:])
def test_cluster_projectors_resolve_the_identity(op):
    data = _spectral_data(op, DEFAULT)
    factors = [data.cluster_factors(i)
               for i in range(len(data.summary.clusters))]
    projectors = [x @ y for x, y in factors]
    scale = max(1.0, max(np.abs(p).max() for p in projectors))
    assert np.max(np.abs(sum(projectors) - np.eye(op.dim))) <= 1e-10 * scale
    for i, p in enumerate(projectors):
        assert np.max(np.abs(op.matrix @ p - p @ op.matrix)) <= 1e-10 * scale
        for j, q in enumerate(projectors):
            want = p if i == j else 0.0
            assert np.max(np.abs(p @ q - want)) <= 1e-9 * scale ** 2
    assert data.cluster_factors(0) is factors[0]


@pytest.mark.parametrize("op", CHANNELS)
def test_factored_orbit_steps_match_the_matrix(op):
    square = tensor(op, op)
    x0 = _random_hermitian_vecs(square.shape, np.random.default_rng(3), 5).T
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
    x0 = _random_hermitian_vecs(product.shape, np.random.default_rng(4), 3).T
    s, layout, strides = _orbit(product, x0, 8)
    block = layout.columns_out(next(strides))
    for t in range(s):
        want = np.linalg.matrix_power(product.matrix, t) @ x0
        assert np.max(np.abs(block[:, 3 * t:3 * t + 3] - want)) <= 1e-12
    rows = np.random.default_rng(5).standard_normal((3, product.dim)) + 0j
    paired = np.einsum("jab,ajb->j", layout.rows_in(rows),
                       layout.columns_in(x0))
    assert np.max(np.abs(paired - np.einsum("jd,dj->j", rows, x0))) <= 1e-12


def _products():
    for param in CHANNELS:
        op = param.values[0]
        yield pytest.param(tensor(op, op), id=param.id)
    left = random_unital_cp(AlgebraShape([2]), 2, seed=1)
    right = random_unital_cp(AlgebraShape([1, 2]), 3, seed=2)
    yield pytest.param(tensor(left, right), id="two-factors")


PRODUCTS = list(_products())


@pytest.mark.parametrize("product", PRODUCTS)
def test_real_form_matches_the_complex_matrix(product):
    # T is real over the orthonormal Hermitian basis H of its shape
    for op in (*product.factors, product):
        form = hermitian_coordinates(op.shape, pairing_coordinates(
            op.shape, op.matrix, axis=1))
        assert np.max(np.abs(form.imag)) <= 1e-12
    # the singular values of M - I, taken on the real form (two swap halves
    # for a square), against the dense complex SVD
    s = np.linalg.svd(product.matrix - np.eye(product.dim), compute_uv=False)
    defect = _spectral_data(product, DEFAULT).defect
    assert np.max(np.abs(defect - s)) <= 1e-12 * max(s[0], 1.0)
    # 16 real orbit steps of Hermitian columns against the matrix
    x = x0 = _random_hermitian_vecs(product.shape,
                                    np.random.default_rng(6), 3).T
    steps, layout, strides = _orbit(product, x0, 16)
    for block in strides:
        got = layout.columns_out(block)
        for t in range(steps):
            assert np.max(np.abs(got[:, 3 * t:3 * t + 3] - x)) <= 1e-12
            x = product.matrix @ x


def _invariant_state_cases():
    for param in PRODUCTS:
        product = param.values[0]
        left, right = product.factors
        yield pytest.param(product, id=param.id)
        yield pytest.param(left, id=f"{param.id}-left")
        if right is not left:
            yield pytest.param(right, id=f"{param.id}-right")
    ident = identity_channel(AlgebraShape([2]))
    yield pytest.param(ident, id="identity2")
    yield pytest.param(tensor(ident, ident), id="identity2-square")


@pytest.mark.parametrize("op", list(_invariant_state_cases()))
def test_invariant_states_span_the_dense_null_space(op):
    # the states come from the rows of the Cesàro factor Y, their count
    # from the singular values of M - I; the oracle is the dense left null
    # space of M - I
    null = scipy.linalg.null_space((op.matrix - np.eye(op.dim)).T,
                                   rcond=DEFAULT.tol_invariant_state)
    states = invariant_states(op)
    assert len(states) == null.shape[1]
    for psi in states:
        assert psi.is_state(tol=1e-8)
        assert functional_norm(dual(op)(psi) - psi) \
            <= 10 * DEFAULT.tol_invariant_state
    rows = np.array([psi.row() for psi in states])
    assert np.linalg.matrix_rank(rows, tol=1e-9) == len(states)


def _assert_witnesses_close(got, want, path="witnesses"):
    if isinstance(got, dict):
        assert got.keys() == want.keys(), path
        for key in got:
            # where the ergodicity residual is rounding noise, its argmax
            # pair is too
            if key == "violating_pair" and got["residual"] <= DEFAULT.tol_spectral:
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
    # the tensor square's spectral data comes from T's: no Schur form,
    # eigensolve or SVD of a D^2 x D^2 matrix; the SVD of M - I runs once on
    # each swap half of T's real form, of sides D(D+1)/2 and D(D-1)/2
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
    d = system.shape.dim
    sized = {name: sum(1 for s in seen if s[-2:] == (d * d,) * 2)
             for name, seen in shapes.items()}
    assert sized == {"schur": 0, "eig": 0, "svd": 0}
    halves = [s for s in shapes["svd"]
              if s[-2:] in {(d * (d + 1) // 2,) * 2, (d * (d - 1) // 2,) * 2}]
    assert sorted(halves) == [(d * (d - 1) // 2,) * 2, (d * (d + 1) // 2,) * 2]


@pytest.mark.parametrize("system", [
    pytest.param(_system(random_unital_cp(AlgebraShape([3]), 2, seed=21)),
                 id="random3-kraus2"),
    pytest.param(example2(12, 5)[0], id="example2")])
def test_classify_reads_no_dual_matrix_and_no_range_basis(system, monkeypatch):
    # psi . T is one row product (DualMap.__call__), with M or, on a
    # product, with the factors' matrices; the rank route reads the
    # fixed-space dimension of the one SVD, and the
    # fixed functionals come from the Cesàro factors, so neither the
    # D^2-entry dual matrix nor the range columns nor any singular vectors
    # are built
    import cstar_mixing
    from cstar_mixing import channel, spectral

    def forbidden(*args, **kwargs):
        raise AssertionError("read on the classify path")

    monkeypatch.setattr(channel.DualMap, "matrix", property(forbidden))
    for module in (cstar_mixing, spectral, mixing):
        if hasattr(module, "range_of_defect"):
            monkeypatch.setattr(module, "range_of_defect", forbidden)
    real_svd, uv = np.linalg.svd, []

    def svd(a, full_matrices=True, compute_uv=True, **kwargs):
        uv.append(compute_uv)
        return real_svd(a, full_matrices, compute_uv, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", svd)
    report = classify(system)
    assert all(isinstance(v, bool) for v in report.verdicts.values())
    # verify trials count an error as a failed trial, so every one must pass
    for name in cstar_mixing.THEOREM_NAMES:
        record = cstar_mixing.verify_theorem(name, (2,), 4, seed=0)
        assert record.passes == record.trials, (name, record.counterexample)
    assert uv and not any(uv)


@pytest.mark.parametrize("left,right", [
    pytest.param(([2], 2, 1), ([2], 2, 1), id="square-2"),
    pytest.param(([3], 3, 2), ([3], 3, 2), id="square-3"),
    pytest.param(([1, 1, 2], 2, 3), ([1, 1, 2], 2, 3), id="square-112"),
    pytest.param(([2, 3], 2, 4), ([2, 3], 2, 4), id="square-23"),
    pytest.param(([2], 3, 5), ([1, 2], 2, 6), id="product-2-12"),
])
def test_dual_map_of_a_product_reads_the_factors(left, right):
    def channel(blocks, kraus, seed):
        return random_unital_cp(AlgebraShape(blocks), kraus, seed=seed)
    a = channel(*left)
    op = tensor(a, a if right == left else channel(*right))
    rng = np.random.default_rng(7)
    for _ in range(3):
        row = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        psi = Functional.from_row(op.shape, row)
        got = dual(op)(psi).row()
        np.testing.assert_allclose(got, psi.row() @ op.matrix, rtol=0,
                                   atol=1e-13 * np.abs(row).max())


class _Unread(np.ndarray):
    """An array that fails on any arithmetic, indexing or conversion."""

    def _fail(self, *args, **kwargs):
        raise AssertionError("the tensor square's matrix was read")

    __array_ufunc__ = __array_function__ = __getitem__ = __array__ = _fail


@pytest.mark.parametrize("blocks", [[3], [2, 3]])
@pytest.mark.parametrize("kraus_count", [1, 2, 3])
def test_classify_reads_no_matrix_of_the_tensor_square(blocks, kraus_count,
                                                         monkeypatch):
    # every step, spectral datum and psi . T of the square comes from its
    # factors: with its D^2 x D^2 matrix replaced by NaNs that fail on any
    # use (NaNs alone would pass a drift check: NaN > tol is False), the
    # report is the same
    from cstar_mixing.serialize import report_to_dict
    op = random_unital_cp(AlgebraShape(blocks), kraus_count, seed=11)
    want = report_to_dict(classify(_system(op)))
    real = mixing.tensor

    def poisoned(a, b):
        product = real(a, b)
        object.__setattr__(product, "matrix", np.full_like(
            product.matrix, np.nan).view(_Unread))
        return product
    monkeypatch.setattr(mixing, "tensor", poisoned)
    assert report_to_dict(classify(_system(op))) == want
