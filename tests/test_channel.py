import numpy as np
import pytest

from cstar_mixing.algebra import (
    AlgebraElement,
    AlgebraShape,
    Functional,
    functional_norm,
    random_element,
    random_functional,
)
from cstar_mixing.channel import (
    MarkovOperator,
    canonical_invariant_state,
    check_cp,
    check_positive_sampled,
    choi_matrix,
    compose,
    dual,
    from_kraus,
    from_stochastic,
    from_superoperator,
    identity_channel,
    invariant_states,
    power,
    random_unital_cp,
    tensor,
)
from cstar_mixing.config import DEFAULT
from cstar_mixing.models import example2
from cstar_mixing.errors import (
    NotCompletelyPositive,
    NotHermitianPreserving,
    NotPositive,
    NotStochastic,
    NotUnital,
    RequiresCP,
    ShapeMismatch,
    ValidationError,
)
from cstar_mixing.spectral import _analyse

S2 = AlgebraShape([2])
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])


def transpose_superoperator():
    # vec(x^T) = S vec(x) with S the swap on index pairs; unital and
    # Hermiticity-preserving but famously not CP
    m = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            m[i + 2 * j, j + 2 * i] = 1.0
    return from_superoperator(S2, m)


def test_from_superoperator_requires_unital():
    with pytest.raises(NotUnital):
        from_superoperator(S2, 0.5 * np.eye(4))


def test_from_superoperator_requires_hermiticity_preserving():
    m = np.eye(4, dtype=complex)
    m[1, 2] = 1.0j    # sends a Hermitian unit off the Hermitian cone
    with pytest.raises(NotHermitianPreserving):
        from_superoperator(S2, m)


def test_from_superoperator_rejects_non_finite_entries():
    # NaN compares false against every residual bound, so it has to be
    # caught by name; inf would otherwise pass as a unital diagonal
    with pytest.raises(ValidationError, match="finite"):
        from_superoperator(S2, np.diag([1.0, np.inf, np.inf, 1.0]))


def test_from_kraus_rejects_non_finite_entries():
    with pytest.raises(ValidationError, match="finite"):
        from_kraus(S2, [np.array([[1.0, 0.0], [0.0, np.nan]])])


def test_from_stochastic_rejects_non_finite_entries():
    with pytest.raises(ValidationError, match="finite"):
        from_stochastic(np.array([[np.nan, 0.5], [0.5, 0.5]]))


def test_verified_cp_claim_is_checked():
    m = transpose_superoperator().matrix
    with pytest.raises(NotCompletelyPositive):
        from_superoperator(S2, m, positivity_claim="verified_cp")


def test_transpose_choi_eigenvalue():
    verdict = check_cp(transpose_superoperator())
    assert not verdict.cp
    assert verdict.min_choi_eigenvalue == pytest.approx(-1.0, abs=1e-9)


def _dense_min_choi(op):
    c = choi_matrix(op)
    return float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0])


@pytest.mark.parametrize("blocks", [[2], [3], [1, 2], [1, 1, 2], [2, 3]])
@pytest.mark.parametrize("kraus_count", [1, 2, 3])
def test_blockwise_choi_minimum_matches_dense(blocks, kraus_count):
    op = random_unital_cp(AlgebraShape(blocks), kraus_count,
                          seed=60 + kraus_count)
    assert check_cp(op).min_choi_eigenvalue == pytest.approx(
        _dense_min_choi(op), abs=1e-12)


def test_blockwise_choi_finds_a_transpose_on_one_block():
    # x -> (x_1, x_2^T) on (1, 2): only the (2, 2) block pair is not CP
    m = np.eye(5, dtype=complex)
    m[1:, 1:] = transpose_superoperator().matrix
    op = from_superoperator(AlgebraShape([1, 2]), m)
    for o in (op, transpose_superoperator()):
        assert check_cp(o).min_choi_eigenvalue == pytest.approx(-1.0, abs=1e-12)
        assert _dense_min_choi(o) == pytest.approx(-1.0, abs=1e-12)


def test_verified_cp_on_a_large_commutative_tensor_square():
    # (1,)*144: the dense Choi matrix would be 20736 x 20736
    op = example2(12, 5)[0].operator
    square = tensor(op, op)
    explicit = from_superoperator(square.shape, square.matrix, "verified_cp")
    assert explicit.is_cp_verified()
    assert check_cp(explicit).min_choi_eigenvalue == 0.0


def test_identity_channel_choi_is_maximally_entangled():
    op = identity_channel(S2)
    choi = choi_matrix(op)
    bell = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            bell[2 * i + i, 2 * j + j] = 1.0
    assert np.allclose(choi, bell, atol=1e-12)
    assert check_cp(op).cp


def test_from_kraus_action_matches_conjugation():
    theta = 0.3
    u = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    op = from_kraus(S2, [u])
    x = AlgebraElement(S2, [PAULI_Z])
    assert np.allclose(op(x).blocks[0], u @ PAULI_Z @ u.conj().T, atol=1e-12)
    assert op.is_cp_verified()


def test_from_kraus_requires_unitality():
    with pytest.raises(NotUnital):
        from_kraus(S2, [np.diag([1.0, 0.5])])


def test_depolarizing_kraus():
    p = 0.25
    ops = [np.sqrt(1 - p) * np.eye(2),
           np.sqrt(p / 3) * PAULI_X,
           np.sqrt(p / 3) * np.array([[0, -1j], [1j, 0]]),
           np.sqrt(p / 3) * PAULI_Z]
    op = from_kraus(S2, ops)
    x = AlgebraElement(S2, [PAULI_Z])
    shrink = 1 - 4 * p / 3
    assert np.allclose(op(x).blocks[0], shrink * PAULI_Z, atol=1e-12)


def test_from_stochastic_shape_and_action():
    P = np.array([[0.7, 0.3], [0.4, 0.6]])
    op = from_stochastic(P)
    assert op.shape == AlgebraShape([1, 1])
    x = AlgebraElement.from_vec(op.shape, np.array([1.0, -1.0]))
    assert np.allclose(op(x).vec(), P @ np.array([1.0, -1.0]), atol=1e-14)
    assert op.is_cp_verified()


def test_from_stochastic_names_bad_row():
    with pytest.raises(NotStochastic, match="row 1"):
        from_stochastic(np.array([[0.5, 0.5], [0.6, 0.6]]))


def test_from_stochastic_names_negative_entry():
    with pytest.raises(NotStochastic, match=r"\(0,1\)"):
        from_stochastic(np.array([[1.2, -0.2], [0.5, 0.5]]))


def test_dual_pairing_adjointness():
    # a call pairs rows with M; the matrix K M^T K, built only when read,
    # is the reference on non-Hermitian functionals, here on (2), (1,2),
    # (2,3) and a tensor square
    rng = np.random.default_rng(9)
    ops = [random_unital_cp(AlgebraShape(b), 3, seed=4)
           for b in ([2], [1, 2], [2, 3])]
    for op in ops + [tensor(ops[0], ops[0])]:
        shape = op.shape
        dm = dual(op)
        assert "matrix" not in vars(dm)
        for _ in range(5):
            psi = random_functional(shape, rng)
            assert not psi.is_hermitian()
            x = random_element(shape, rng)
            assert dm(psi)(x) == pytest.approx(psi(op(x)), abs=1e-11)
            assert np.max(np.abs(dm(psi).vec() - dm.matrix @ psi.vec())) \
                <= 1e-13
        assert not dm.matrix.flags.writeable


def test_compose_and_power():
    P = np.array([[0.7, 0.3], [0.4, 0.6]])
    op = from_stochastic(P)
    assert np.allclose(compose(op, op).matrix, P @ P, atol=1e-14)
    assert np.allclose(power(op, 5).matrix, np.linalg.matrix_power(P, 5),
                       atol=1e-13)


def test_invariant_states_unique_for_irreducible_chain():
    op = from_stochastic(np.array([[0.7, 0.3], [0.4, 0.6]]))
    states = invariant_states(op)
    assert len(states) == 1
    assert np.allclose(states[0].vec(), [4 / 7, 3 / 7], atol=1e-12)


def test_invariant_states_many_for_identity():
    states = invariant_states(identity_channel(S2))
    assert len(states) > 1
    for s in states:
        assert s.is_state(1e-9)


def test_canonical_invariant_state_is_invariant():
    for seed in range(4):
        op = random_unital_cp(AlgebraShape([1, 2]), 2, seed=seed)
        phi = canonical_invariant_state(op)
        assert phi.is_state(1e-9)
        assert functional_norm(dual(op)(phi) - phi) <= 1e-9


def _max_block_diff(x, y):
    return max(np.max(np.abs(a - b)) for a, b in zip(x.blocks, y.blocks))


def test_random_unital_cp_is_unital_and_deterministic():
    shape = AlgebraShape([2, 1])
    a = random_unital_cp(shape, 3, seed=12)
    b = random_unital_cp(shape, 3, seed=12)
    assert np.array_equal(a.matrix, b.matrix)
    one = AlgebraElement.identity(shape)
    assert _max_block_diff(a(one), one) <= 1e-10
    assert a.is_cp_verified()


def test_tensor_requires_verified_cp():
    op = transpose_superoperator()
    with pytest.raises(RequiresCP):
        tensor(op, op)


def test_tensor_acts_as_product():
    rng = np.random.default_rng(14)
    op1 = random_unital_cp(S2, 2, seed=1)
    op2 = random_unital_cp(AlgebraShape([1, 1]), 2, seed=2)
    big = tensor(op1, op2)
    x = random_element(S2, rng)
    y = random_element(op2.shape, rng)
    lhs = big(x.tensor(y))
    rhs = op1(x).tensor(op2(y))
    assert _max_block_diff(lhs, rhs) <= 1e-11


def test_sampled_positivity_passes_for_cp():
    op = random_unital_cp(S2, 3, seed=5)
    result = check_positive_sampled(op, 32, seed=0)
    assert result.passed


def test_sampled_positive_claim_accepts_a_cp_matrix():
    op = random_unital_cp(AlgebraShape([3]), 3, seed=5)
    wrapped = from_superoperator(op.shape, op.matrix,
                                 positivity_claim="sampled_positive")
    assert wrapped.positivity_claim == "sampled_positive"


def test_sampled_positive_claim_rejects_a_non_positive_map():
    # x -> (2/3) tr(x) 1 - x on M_3 is unital and Hermiticity-preserving,
    # but a rank-one projector P goes to (2/3) 1 - P, with eigenvalue -1/3
    shape = AlgebraShape([3])
    one = np.eye(3).reshape(-1)
    matrix = (2 / 3) * np.outer(one, one) - np.eye(9)
    assert from_superoperator(shape, matrix).positivity_claim == "declared"
    with pytest.raises(NotPositive, match="sampled positivity"):
        from_superoperator(shape, matrix, positivity_claim="sampled_positive")


def test_kraus_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        from_kraus(S2, [np.eye(3)])


@pytest.mark.parametrize("blocks", [[2], [3], [1, 1, 2], [2, 3]])
@pytest.mark.parametrize("kraus_count", [1, 2, 3, 4])
def test_canonical_state_from_transposed_projector(blocks, kraus_count):
    # the dual's Cesàro projector is K P^T K; the state built from it must
    # match the one from a direct Schur solve on the dual matrix (wrapped
    # unvalidated: the dual of a unital map need not be unital)
    shape = AlgebraShape(blocks)
    op = random_unital_cp(shape, kraus_count, seed=40 + kraus_count)
    proj = _analyse(MarkovOperator(shape, dual(op).matrix), DEFAULT).cesaro()
    v = proj @ Functional.uniform_state(shape).vec()
    ref = Functional.from_vec(shape, v)
    ref = ref * (1.0 / sum(np.trace(b) for b in ref.blocks))
    got = canonical_invariant_state(op)
    assert np.max(np.abs(got.vec() - ref.vec())) <= 1e-12
