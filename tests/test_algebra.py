import numpy as np
import pytest

from cstar_mixing.algebra import (
    AlgebraElement,
    AlgebraShape,
    Functional,
    functional_norm,
    hermitian_basis,
    hermitian_basis_matrix,
    hermitian_split,
    jordan_decompose,
    operator_norm,
    product_pairing_matrix,
    random_element,
    random_functional,
    random_hermitian_functional,
    random_state,
    tensor_elements,
    tensor_functionals,
)
from cstar_mixing.errors import NotHermitian, ShapeMismatch

M22 = AlgebraShape([2, 2])
M12 = AlgebraShape([1, 2])
# repeated block sides: the batched per-side paths see several blocks a side
REPEATED = AlgebraShape([1, 2, 1, 2, 3])


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
    h1, h2 = hermitian_split(psi)
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


def test_product_pairing_matrix():
    rng = np.random.default_rng(21)
    psi = random_functional(M12, rng)
    q = product_pairing_matrix(psi)
    for _ in range(10):
        y = random_element(M12, rng)
        z = random_element(M12, rng)
        prod = AlgebraElement(M12, [a @ b for a, b in zip(y.blocks, z.blocks)])
        assert y.vec() @ q @ z.vec() == pytest.approx(psi(prod), abs=1e-12)


def test_tensor_pairing_is_multiplicative():
    rng = np.random.default_rng(5)
    s1, s2 = AlgebraShape([2]), M12
    assert s1.tensor(s2).blocks == (2, 4)
    f, g = random_functional(s1, rng), random_functional(s2, rng)
    x, y = random_element(s1, rng), random_element(s2, rng)
    fg = tensor_functionals(f, g)
    xy = tensor_elements(x, y)
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
