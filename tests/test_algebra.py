import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_mixing.algebra import (
    AlgebraElement,
    AlgebraShape,
    Functional,
    functional_norm,
    hermitian_basis,
    hermitian_basis_matrix,
    hermitian_operator_norms,
    jordan_decompose,
    operator_norm,
    operator_norms,
    random_element,
    random_functional,
    random_hermitian_element,
    random_state,
    tensor_permutation,
    trace_norms,
    transpose_permutation,
)
from cstar_mixing.errors import NotHermitian, ShapeMismatch

M22 = AlgebraShape([2, 2])
M12 = AlgebraShape([1, 2])
# repeated block sides: the batched per-side paths see several blocks a side
REPEATED = AlgebraShape([1, 2, 1, 2, 3])


def random_hermitian_functional(shape, rng):
    return random_functional(shape, rng, normalized=False).hermitian_parts()[0]


def test_shape_dimensions():
    s = AlgebraShape([2, 3, 1])
    assert s.dim == 4 + 9 + 1
    assert s.matrix_dim == 6
    assert s.offsets == (0, 4, 13)    # vec offsets, cumulative n*n


@pytest.mark.parametrize("blocks", [[], [0], [-1, 2], [2, 0]])
def test_shape_rejects_bad_blocks(blocks):
    with pytest.raises(ShapeMismatch):
        AlgebraShape(blocks)


def test_vec_is_column_stacked():
    x = AlgebraElement(M12, [np.array([[5.0]]),
                             np.array([[1.0, 2.0], [3.0, 4.0]])])
    # column-major within each block, blocks concatenated
    assert np.allclose(x.vec(), [5, 1, 3, 2, 4])
    back = AlgebraElement.from_vec(M12, x.vec())
    for a, b in zip(back.blocks, x.blocks):
        assert np.array_equal(a, b)


def test_identity_element():
    one = AlgebraElement.identity(M12)
    assert np.array_equal(one.blocks[0], np.eye(1))
    assert np.array_equal(one.blocks[1], np.eye(2))


def test_functional_pairing_is_block_trace():
    sigma = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
    psi = Functional(AlgebraShape([2]), [sigma])
    x = AlgebraElement(AlgebraShape([2]), [np.array([[1, 2], [3, 4]])])
    assert psi(x) == pytest.approx(np.trace(sigma @ x.blocks[0]))


def test_row_matches_pairing():
    rng = np.random.default_rng(3)
    psi = random_functional(M12, rng)
    x = random_element(M12, rng)
    assert psi.row() @ x.vec() == pytest.approx(psi(x), abs=1e-12)


def test_functional_norm_is_trace_norm():
    h = Functional(AlgebraShape([2]), [np.diag([3.0, -4.0])])
    assert functional_norm(h) == pytest.approx(7.0, abs=1e-12)
    g = Functional(M22, [np.diag([1.0, 1.0]), np.array([[0, 2.0], [0, 0]])])
    assert functional_norm(g) == pytest.approx(4.0, abs=1e-12)


def test_operator_norm_oracle():
    x = AlgebraElement(M22, [np.diag([1.0, -5.0]), np.array([[0, 3.0], [0, 0]])])
    assert operator_norm(x) == pytest.approx(5.0, abs=1e-12)
    blocks = [np.array([[2.0j]]), np.diag([1.0, -3.0]), np.array([[-4.0]]),
              np.array([[0, 6.0], [0, 0]]), np.diag([1.0, 2.0, -5.0])]
    assert operator_norm(AlgebraElement(REPEATED, blocks)) == pytest.approx(6.0, abs=1e-12)
    blocks[2] = np.array([[-7.0j]])
    assert operator_norm(AlgebraElement(REPEATED, blocks)) == pytest.approx(7.0, abs=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(20):
        z = random_element(REPEATED, rng)
        ref = max(np.linalg.norm(b, 2) for b in z.blocks)
        assert operator_norm(z) == pytest.approx(ref, abs=1e-12)


def test_uniform_state():
    tau = Functional.uniform_state(M12)
    one = AlgebraElement.identity(M12)
    assert tau(one) == pytest.approx(1.0, abs=1e-14)
    assert tau.is_state()


def test_functional_arithmetic():
    rng = np.random.default_rng(8)
    f = random_functional(M12, rng)
    g = random_functional(M12, rng)
    x = random_element(M12, rng)
    assert (f + g)(x) == pytest.approx(f(x) + g(x), abs=1e-12)
    assert (f - g)(x) == pytest.approx(f(x) - g(x), abs=1e-12)
    assert (2.5j * f)(x) == pytest.approx(2.5j * f(x), abs=1e-12)


def test_hermitian_split():
    rng = np.random.default_rng(4)
    psi = random_functional(M12, rng)
    h1, h2 = psi.hermitian_parts()
    assert h1.is_hermitian(1e-12) and h2.is_hermitian(1e-12)
    x = random_element(M12, rng)
    assert h1(x) + 1j * h2(x) == pytest.approx(psi(x), abs=1e-12)


def test_jordan_decompose_oracle():
    h = Functional(AlgebraShape([2]), [np.diag([3.0, -4.0])])
    hp, hm = jordan_decompose(h)
    assert np.allclose(hp.blocks[0], np.diag([3.0, 0.0]), atol=1e-12)
    assert np.allclose(hm.blocks[0], np.diag([0.0, 4.0]), atol=1e-12)


def test_jordan_norm_additivity():
    rng = np.random.default_rng(11)
    for shape in (AlgebraShape([2]), M12, AlgebraShape([1, 1, 2]), REPEATED):
        for _ in range(50):
            h = random_hermitian_functional(shape, rng)
            hp, hm = jordan_decompose(h)
            total = functional_norm(hp) + functional_norm(hm)
            assert total == pytest.approx(functional_norm(h), abs=1e-12)
            diff = hp - hm
            assert functional_norm(diff - h) <= 1e-10


def test_hermitian_basis_spans_selfadjoint():
    for shape in (M12, REPEATED):
        basis = hermitian_basis(shape)
        assert len(basis) == shape.dim
        for b in basis:
            for blk in b.blocks:
                assert np.allclose(blk, blk.conj().T, atol=1e-14)
        mat = hermitian_basis_matrix(shape)
        assert mat.shape == (shape.dim, shape.dim)
        assert np.linalg.matrix_rank(mat) == shape.dim
        # the matrix is written directly; its columns are the basis, in order
        assert np.array_equal(mat, np.column_stack([b.vec() for b in basis]))


def test_tensor_pairing_is_multiplicative():
    rng = np.random.default_rng(5)
    s1, s2 = AlgebraShape([2]), M12
    assert s1.tensor(s2).blocks == (2, 4)
    f, g = random_functional(s1, rng), random_functional(s2, rng)
    x, y = random_element(s1, rng), random_element(s2, rng)
    fg = f.tensor(g)
    xy = x.tensor(y)
    assert fg(xy) == pytest.approx(f(x) * g(y), abs=1e-11)


def test_random_functional_normalized():
    rng = np.random.default_rng(6)
    psi = random_functional(M22, rng)
    assert functional_norm(psi) == pytest.approx(1.0, abs=1e-10)


def test_random_state_is_state():
    rng = np.random.default_rng(7)
    for shape in (M12, REPEATED):
        for _ in range(5):
            rho = random_state(shape, rng)
            assert rho.is_state(1e-10)
            assert rho(AlgebraElement.identity(shape)) == pytest.approx(1.0, abs=1e-12)


def test_shape_mismatch_raises():
    f = Functional.uniform_state(M12)
    x = AlgebraElement.identity(M22)
    with pytest.raises(ShapeMismatch):
        f(x)
    with pytest.raises(ShapeMismatch):
        AlgebraElement(M12, [np.eye(2), np.eye(2)])


def test_random_element_draws_block_by_block():
    # reference: real then imaginary n x n draws for each block in turn
    a, b = np.random.default_rng(13), np.random.default_rng(13)
    x = random_element(REPEATED, a)
    for n, blk in zip(REPEATED.blocks, x.blocks):
        ref = (b.standard_normal((n, n)) + 1j * b.standard_normal((n, n))) / np.sqrt(2)
        assert np.array_equal(blk, ref)
    assert a.random() == b.random()



def test_shape_attributes_and_the_unit_are_memoized_read_only():
    import dataclasses
    from cstar_mixing.algebra import _identity_vec
    s, fresh = AlgebraShape([2, 3, 1]), AlgebraShape([2, 3, 1])
    assert s.offsets is s.offsets and s.dim == 14
    one = _identity_vec(s)
    assert _identity_vec(fresh) is one and not one.flags.writeable
    assert AlgebraElement.identity(s).vec() is one
    want = np.concatenate([np.eye(n).reshape(-1) for n in s.blocks])
    assert one.tobytes() == want.astype(complex).tobytes()
    uniform = np.concatenate([(np.eye(n) / 6).reshape(-1) for n in s.blocks])
    assert (Functional.uniform_state(s).vec().tobytes()
            == uniform.astype(complex).tobytes())
    # the cached attributes are not fields: equality and hashing see blocks
    assert [f.name for f in dataclasses.fields(s)] == ["blocks"]
    assert s == fresh and hash(s) == hash(fresh) == hash(((2, 3, 1),))
    assert s != AlgebraShape([1, 3, 2])


# -- stacked draws against the block-by-block draws they replace ------------

def _random_element_by_blocks(shape, rng):
    """The block-by-block draw: real then imaginary n x n parts per block."""
    draws = rng.standard_normal(2 * shape.dim)
    blocks, pos = [], 0
    for n in shape.blocks:
        k = n * n
        re = draws[pos:pos + k].reshape(n, n)
        im = draws[pos + k:pos + 2 * k].reshape(n, n)
        blocks.append((re + 1j * im) / np.sqrt(2))
        pos += 2 * k
    return AlgebraElement(shape, blocks)


def _random_state_by_blocks(shape, rng):
    """The block-by-block state: g g* + 1e-12 per block over the total trace."""
    mats = []
    for n in shape.blocks:
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        mats.append(g @ g.conj().T + 1e-12 * np.eye(n))
    total = sum(float(np.trace(m).real) for m in mats)
    return Functional(shape, [m / total for m in mats])


def _hermitian_by_blocks(shape, rng, normalized):
    h = _random_element_by_blocks(shape, rng).hermitian_parts()[0]
    nrm = operator_norm(h)
    return h * (1.0 / nrm) if normalized and nrm > 0 else h


def _functional_by_blocks(shape, rng, normalized):
    psi = Functional.from_vec(shape, _random_element_by_blocks(shape, rng).vec())
    nrm = functional_norm(psi)
    return psi * (1.0 / nrm) if normalized and nrm > 0 else psi


DRAW_SHAPES = [(2,), (3,), (1, 1, 2), (1,) * 12, (4, 6, 6, 9),
               (1, 1, 2, 1, 1, 2, 2, 2, 4)]


def _draw_pairs(m):
    """(stacked draw of m, the same m drawn one at a time by blocks)."""
    from cstar_mixing import algebra
    one = {
        "element": (random_element, _random_element_by_blocks),
        "hermitian": (random_hermitian_element,
                      lambda s, r: _hermitian_by_blocks(s, r, True)),
        "hermitian_raw": (lambda s, r: random_hermitian_element(s, r, False),
                          lambda s, r: _hermitian_by_blocks(s, r, False)),
        "functional": (random_functional,
                       lambda s, r: _functional_by_blocks(s, r, True)),
        "functional_raw": (lambda s, r: random_functional(s, r, False),
                           lambda s, r: _functional_by_blocks(s, r, False)),
        "state": (random_state, _random_state_by_blocks),
    }
    if m == 1:
        return {k: (lambda s, r, f=f: f(s, r).vec()[None], ref)
                for k, (f, ref) in one.items()}
    return {
        "hermitian_raw": (lambda s, r: algebra._random_hermitian_vecs(s, r, m),
                          one["hermitian_raw"][1]),
        "functional": (lambda s, r: algebra._random_functional_vecs(s, r, m),
                       one["functional"][1]),
        "functional_raw": (
            lambda s, r: algebra._random_functional_vecs(s, r, m, False),
            one["functional_raw"][1]),
        "state": (lambda s, r: algebra._random_state_vecs(s, r, m),
                  one["state"][1]),
    }


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("blocks", DRAW_SHAPES, ids=str)
def test_stacked_draws_are_the_block_by_block_draws(blocks, m):
    # bit for bit, and the generator is left in the same state
    shape = AlgebraShape(blocks)
    for kind, (stacked, by_blocks) in _draw_pairs(m).items():
        for seed in (0, 1, 2):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = stacked(shape, a)
            want = np.stack([by_blocks(shape, b).vec() for _ in range(m)])
            assert got.shape == (m, shape.dim), kind
            assert got.tobytes() == want.tobytes(), (kind, seed)
            assert a.standard_normal() == b.standard_normal(), (kind, seed)


@pytest.mark.parametrize("blocks", DRAW_SHAPES, ids=str)
def test_block_products_are_the_per_block_products(blocks):
    from cstar_mixing.algebra import block_products
    shape = AlgebraShape(blocks)
    rng = np.random.default_rng(4)
    x = random_element(shape, rng)
    ys = [random_element(shape, rng) for _ in range(3)]
    got = block_products(shape, x.vec(), np.stack([y.vec() for y in ys]))
    for row, y in zip(got, ys):
        want = AlgebraElement(shape, [a @ b for a, b in zip(x.blocks, y.blocks)])
        assert row.tobytes() == want.vec().tobytes()
    assert (x @ ys[0]).vec().tobytes() == got[0].tobytes()

def test_blockwise_predicates_report_the_offending_block():
    rng = np.random.default_rng(17)
    h = random_hermitian_functional(REPEATED, rng)
    assert h.is_hermitian(1e-12)
    blocks = list(h.blocks)
    blocks[3] = blocks[3] + np.array([[0, 0.5], [0, 0]])   # second 2x2 block
    bad = Functional(REPEATED, blocks)
    assert not bad.is_hermitian(1e-3)
    with pytest.raises(NotHermitian, match="by 5.00e-01"):
        jordan_decompose(bad, tol=1e-3)
    rho = random_state(REPEATED, rng)
    blocks = list(rho.blocks)
    blocks[2] = -blocks[2]                                   # second 1x1 block
    assert not Functional(REPEATED, blocks).is_state(1e-10)


# -- properties of the flat block storage, over random shapes ---------------

SHAPES = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(AlgebraShape)
SEEDS = st.integers(0, 2**32 - 1)


def _draws(shape, seed):
    rng = np.random.default_rng(seed)
    return (random_element(shape, rng), random_element(shape, rng),
            random_functional(shape, rng), random_functional(shape, rng))


def _block_trace(psi, x):
    return sum(np.trace(s @ b) for s, b in zip(psi.blocks, x.blocks))


@settings(max_examples=60, deadline=None)
@given(SHAPES, SEEDS)
def test_from_vec_round_trips_and_views_are_read_only(shape, seed):
    x, _, psi, _ = _draws(shape, seed)
    for obj in (x, psi):
        back = type(obj).from_vec(shape, obj.vec())
        assert np.array_equal(back.vec(), obj.vec())
        for a, b in zip(back.blocks, obj.blocks):
            assert np.array_equal(a, b)
        assert not obj.vec().flags.writeable
        for blk in obj.blocks:
            assert not blk.flags.writeable
            assert np.shares_memory(blk, obj.vec())
            with pytest.raises(ValueError):
                blk[0, 0] = 1.0


@settings(max_examples=60, deadline=None)
@given(SHAPES, SEEDS)
def test_adjoint_is_an_involution(shape, seed):
    x, _, psi, _ = _draws(shape, seed)
    for obj in (x, psi):
        star = obj.adjoint()
        for a, b in zip(star.blocks, obj.blocks):
            assert np.array_equal(a, b.conj().T)
        assert np.array_equal(star.adjoint().vec(), obj.vec())
        h1, h2 = obj.hermitian_parts()
        assert h1.is_hermitian(0.0) and h2.is_hermitian(0.0)
        assert np.allclose((h1 + 1j * h2).vec(), obj.vec(), atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(SHAPES, SHAPES, SEEDS)
def test_pairings_and_tensor_products(shape, other, seed):
    x, _, psi, _ = _draws(shape, seed)
    y, _, tau, _ = _draws(other, seed + 1)
    assert psi.row() @ x.vec() == pytest.approx(psi(x), abs=1e-12)
    assert np.array_equal(Functional.from_row(shape, psi.row()).vec(), psi.vec())
    assert psi(x) == pytest.approx(_block_trace(psi, x), abs=1e-12)
    xy, pt = x.tensor(y), psi.tensor(tau)
    assert xy.shape == pt.shape == shape.tensor(other)
    ref = [np.kron(a, b) for a in x.blocks for b in y.blocks]
    for a, b in zip(xy.blocks, ref):
        assert np.array_equal(a, b)
    assert pt(xy) == pytest.approx(psi(x) * tau(y), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(SHAPES, SEEDS)
def test_batched_norms_match_blockwise_norms(shape, seed):
    elems = _draws(shape, seed)
    stacked = np.stack([e.vec() for e in elems]).reshape(2, 2, shape.dim)
    ops = operator_norms(shape, stacked).reshape(-1)
    traces = trace_norms(shape, stacked).reshape(-1)
    for e, op_norm, tr_norm in zip(elems, ops, traces):
        assert op_norm == pytest.approx(
            max(np.linalg.norm(b, 2) for b in e.blocks), abs=1e-12)
        assert tr_norm == pytest.approx(
            sum(np.linalg.norm(b, "nuc") for b in e.blocks), abs=1e-12)
    x, y, psi, tau = elems
    assert [operator_norm(x), operator_norm(y)] == list(ops[:2])
    assert [functional_norm(psi), functional_norm(tau)] == list(traces[2:])


# 1x1 blocks next to larger ones: moduli and eigvalsh in one fold
MIXED_SHAPES = st.lists(st.integers(1, 3), min_size=0, max_size=3).map(
    lambda sides: AlgebraShape([1, *sides, 2]))


@settings(max_examples=60, deadline=None)
@given(MIXED_SHAPES, SEEDS)
def test_hermitian_operator_norms_match_the_svd(shape, seed):
    rng = np.random.default_rng(seed)
    stacked = np.stack([
        random_hermitian_element(shape, rng, normalized=False).vec()
        for _ in range(6)]).reshape(2, 3, shape.dim)
    fast = hermitian_operator_norms(shape, stacked)
    assert fast.shape == (2, 3)
    np.testing.assert_allclose(fast, operator_norms(shape, stacked),
                               rtol=1e-12, atol=0)


@settings(max_examples=20, deadline=None)
@given(MIXED_SHAPES, st.integers(1, 4), SEEDS)
def test_orbit_norms_match_the_svd_of_the_orbit(shape, kraus_count, seed):
    # the orbit stepped one product at a time as the reference; the two
    # orbits differ by rounding, about 1e-15 of the probe's norm (<= 1)
    from cstar_mixing.channel import canonical_invariant_state, random_unital_cp
    from cstar_mixing.mixing import (DynamicalSystem, _centered_columns,
                                     _orbit_norm_series)
    op = random_unital_cp(shape, kraus_count, seed=seed)
    system = DynamicalSystem(op, canonical_invariant_state(op))
    rng = np.random.default_rng(seed)
    x = _centered_columns(system, np.stack([
        random_hermitian_element(shape, rng).vec() for _ in range(3)]))
    norms, _, _ = _orbit_norm_series(system, x, 64)
    ref = []
    for _ in range(64):
        ref.append(operator_norms(shape, x.T))
        x = op.matrix @ x
    np.testing.assert_allclose(norms, ref, rtol=1e-12, atol=1e-13)


def _tensor_permutation_by_loop(a, b):
    """The index built block pair by block pair, one meshgrid each."""
    db = b.dim
    out = np.empty(a.dim * db, dtype=np.intp)
    pos = 0
    for i, n in enumerate(a.blocks):
        for j, m in enumerate(b.blocks):
            P, R, Q, S = np.meshgrid(np.arange(n), np.arange(m), np.arange(n),
                                     np.arange(m), indexing="ij")
            tgt = pos + P * m + R + n * m * (Q * m + S)
            src = ((a.offsets[i] + P + n * Q) * db) + (b.offsets[j] + R + m * S)
            out[tgt.reshape(-1)] = src.reshape(-1)
            pos += (n * m) ** 2
    return out


@pytest.mark.parametrize("a, b", [((2, 3), (1, 1, 2)), ((1,) * 12, (1,) * 12)])
def test_tensor_permutation_matches_the_blockwise_loop(a, b):
    a, b = AlgebraShape(a), AlgebraShape(b)
    assert np.array_equal(tensor_permutation(a, b),
                          _tensor_permutation_by_loop(a, b))


def test_index_permutations_are_memoized_read_only():
    # callers index with them and never write; one array per shape
    a, b = AlgebraShape([2, 3]), AlgebraShape([1, 1, 2])
    for first, again in (
            (transpose_permutation(a), transpose_permutation(AlgebraShape([2, 3]))),
            (tensor_permutation(a, b), tensor_permutation(a, AlgebraShape([1, 1, 2])))):
        assert again is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0


# -- the Hermitian basis and real coordinates --------------------------------

BASIS_SHAPES = [(2,), (3,), (1, 1, 2), (2, 3), (1,) * 12, (1, 2, 1, 2, 3)]


@pytest.mark.parametrize("blocks", BASIS_SHAPES, ids=str)
def test_hermitian_bases_are_memoized_read_only_and_orthonormal(blocks):
    from cstar_mixing.algebra import (hermitian_basis_norms,
                                      orthonormal_hermitian_basis)
    shape = AlgebraShape(blocks)
    for make in (hermitian_basis_matrix, hermitian_basis_norms,
                 orthonormal_hermitian_basis):
        first = make(shape)
        assert make(AlgebraShape(blocks)) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0
    basis = orthonormal_hermitian_basis(shape)
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(shape.dim))) <= 1e-15
    assert np.array_equal(basis * hermitian_basis_norms(shape),
                          hermitian_basis_matrix(shape))


@pytest.mark.parametrize("blocks", BASIS_SHAPES, ids=str)
def test_coordinate_maps_are_products_with_the_orthonormal_basis(blocks):
    from cstar_mixing.algebra import (hermitian_coordinates,
                                      orthonormal_hermitian_basis,
                                      pairing_coordinates, real_form)
    from cstar_mixing.channel import random_unital_cp
    shape = AlgebraShape(blocks)
    basis = orthonormal_hermitian_basis(shape)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, shape.dim, 4)) \
        + 1j * rng.standard_normal((3, shape.dim, 4))
    for got, want in (
            (hermitian_coordinates(shape, x, axis=1),
             np.einsum("iq,piw->pqw", basis.conj(), x)),
            (pairing_coordinates(shape, x, axis=-2),
             np.einsum("iq,piw->pqw", basis, x)),
            (hermitian_coordinates(shape, x[0]), basis.conj().T @ x[0])):
        assert np.max(np.abs(got - want)) <= 1e-14
    m = random_unital_cp(shape, 3, seed=2).matrix
    r = real_form(shape, m)
    assert r.dtype == float
    assert np.max(np.abs(r - basis.conj().T @ m @ basis)) <= 1e-14


@pytest.mark.parametrize("blocks", [(1,) * 12, (2, 3), (1, 1, 2)], ids=str)
def test_norm_folds_do_not_depend_on_the_memory_layout(blocks):
    # a column-major stack folds as its C-ordered copy does, bit for bit
    shape = AlgebraShape(blocks)
    rng = np.random.default_rng(11)
    psis = np.stack([random_functional(shape, rng).vec() for _ in range(5)])
    hs = np.stack([random_hermitian_element(shape, rng).vec()
                   for _ in range(5)])
    for fold, stack in ((trace_norms, psis), (hermitian_operator_norms, hs)):
        fortran = np.asfortranarray(stack)
        assert not fortran.flags.c_contiguous
        want = fold(shape, np.ascontiguousarray(stack))
        assert fold(shape, fortran).tobytes() == want.tobytes()
        assert fold(shape, stack.T.copy().T).tobytes() == want.tobytes()
