import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from cstar_mixing import (
    AlgebraShape,
    DefectivePeripheral,
    cesaro_projector_iterative,
    cesaro_projector_spectral,
    dual,
    from_stochastic,
    from_superoperator,
    functional_norm,
    identity_channel,
    invariant_states,
    power_limit,
    random_unital_cp,
    range_of_defect,
    spectrum,
    tensor,
)
from cstar_mixing.config import DEFAULT
from cstar_mixing.mixing import _corner_unital_cp
from cstar_mixing.models import example2
from cstar_mixing.spectral import _analyse, _cluster_labels


def shift4():
    P = np.zeros((4, 4))
    for j in range(4):
        P[j, (j + 1) % 4] = 1.0
    return from_stochastic(P)


def chain2():
    return from_stochastic(np.array([[0.7, 0.3], [0.4, 0.6]]))


def defective3():
    # unital and real, but (M - I) has rank 1 while 1 has algebraic
    # multiplicity 3: a genuine peripheral Jordan block
    M = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
    return from_superoperator(AlgebraShape([1, 1, 1]), M)


def test_shift_spectrum_is_fourth_roots():
    s = spectrum(shift4())
    roots = [np.exp(2j * np.pi * k / 4) for k in range(4)]
    eigs = np.array(s.eigenvalues)
    assert eigs.shape == (4,)
    assert max(min(abs(eigs - r)) for r in roots) <= 1e-10
    assert s.fixed_space_dim == 1
    assert s.spectral_radius == pytest.approx(1.0, abs=1e-12)
    assert len(s.peripheral) == 4
    assert not s.defective_peripheral


def test_shift_cesaro_is_uniform_average():
    # all four roots of unity average out except the 1-eigenspace
    c = cesaro_projector_spectral(shift4())
    assert np.allclose(c, np.full((4, 4), 0.25), atol=1e-12)


def test_shift_powers_diverge():
    pl = power_limit(shift4())
    assert pl.diverges_peripheral
    assert pl.limit is None
    assert len(pl.offending) == 3
    assert all(abs(abs(c) - 1.0) <= 1e-10 for c in pl.offending)


def test_chain_eigenvalues():
    s = spectrum(chain2())
    got = sorted(x.real for x in s.eigenvalues)
    assert got == pytest.approx([0.3, 1.0], abs=1e-12)
    assert max(abs(x.imag) for x in s.eigenvalues) <= 1e-12
    assert s.fixed_space_dim == 1


def test_chain_cesaro_matches_long_power():
    op = chain2()
    c = cesaro_projector_spectral(op)
    target = np.linalg.matrix_power(op.matrix.real, 200)
    assert np.allclose(c, target, atol=1e-12)
    # rank-one projection onto constants along (4/7, 3/7)
    expected = np.outer(np.ones(2), [4 / 7, 3 / 7])
    assert np.allclose(c, expected, atol=1e-12)


def test_chain_power_limit_converges():
    pl = power_limit(chain2())
    assert not pl.diverges_peripheral
    assert pl.offending == ()
    assert np.allclose(pl.limit, np.outer(np.ones(2), [4 / 7, 3 / 7]),
                       atol=1e-12)


def test_identity_spectrum():
    op = identity_channel(AlgebraShape([2]))
    s = spectrum(op)
    assert s.fixed_space_dim == 4
    assert s.peripheral == (1 + 0j,)
    assert not s.defective_peripheral
    assert np.allclose(cesaro_projector_spectral(op), np.eye(4), atol=1e-14)
    assert range_of_defect(op).shape == (4, 0)


def test_defective_peripheral_detected():
    op = defective3()
    assert spectrum(op).defective_peripheral
    with pytest.raises(DefectivePeripheral):
        cesaro_projector_spectral(op)


def test_defective_peripheral_raises():
    op = defective3()
    with pytest.raises(DefectivePeripheral):
        cesaro_projector_spectral(op)
    with pytest.raises(DefectivePeripheral):
        power_limit(op)


def test_range_of_defect_width_and_span():
    op = shift4()
    basis = range_of_defect(op)
    assert basis.shape == (4, 3)
    assert np.allclose(basis.conj().T @ basis, np.eye(3), atol=1e-12)
    # every (T - id) v lies in the returned column space
    rng = np.random.default_rng(3)
    m = op.matrix - np.eye(4)
    for _ in range(5):
        v = m @ (rng.normal(size=4) + 1j * rng.normal(size=4))
        resid = v - basis @ (basis.conj().T @ v)
        assert np.linalg.norm(resid) <= 1e-10


def test_cesaro_projector_is_projector():
    for seed in (0, 1):
        op = random_unital_cp(AlgebraShape([2, 1]), 3, seed=seed)
        c = cesaro_projector_spectral(op)
        assert np.allclose(c @ c, c, atol=1e-9)
        assert np.allclose(c @ op.matrix, c, atol=1e-9)
        assert np.allclose(op.matrix @ c, c, atol=1e-9)


def test_iterative_matches_spectral():
    shapes = [AlgebraShape([2]), AlgebraShape([1, 2]), AlgebraShape([3])]
    for i, shape in enumerate(shapes):
        op = random_unital_cp(shape, 2 + i % 2, seed=100 + i)
        exact = cesaro_projector_spectral(op)
        # the dyadic residual decays like 1/N; the extrapolate is far tighter
        it = cesaro_projector_iterative(op, 2 ** 14, tol=1e-3)
        assert it.converged
        assert np.max(np.abs(it.matrix - exact)) <= 1e-6


def test_iterative_plain_accumulation_oracle():
    op = chain2()
    n = 100
    acc = np.zeros((2, 2), dtype=complex)
    cur = np.eye(2, dtype=complex)
    for _ in range(n):
        acc += cur
        cur = op.matrix @ cur
    it = cesaro_projector_iterative(op, n, tol=1e-3)
    assert np.allclose(it.raw_mean, acc / n, atol=1e-12)


def test_iterative_dyadic_doubling_matches_direct_sum():
    op = random_unital_cp(AlgebraShape([2]), 2, seed=9)
    n = 64
    acc = np.zeros((4, 4), dtype=complex)
    cur = np.eye(4, dtype=complex)
    for _ in range(n):
        acc += cur
        cur = op.matrix @ cur
    it = cesaro_projector_iterative(op, n, tol=1e-3)
    assert np.allclose(it.raw_mean, acc / n, atol=1e-11)


def test_iterative_edge_cases():
    op = chain2()
    it = cesaro_projector_iterative(op, 1, tol=1e-6)
    assert np.array_equal(it.raw_mean, np.eye(2))
    assert not it.converged
    with pytest.raises(ValueError):
        cesaro_projector_iterative(op, 0, tol=1e-6)


def test_near_degenerate_eigenvalues_cluster():
    # triangular stochastic matrix with eigenvalues 1, 0.5, 0.5 - 1e-9;
    # the near pair sits inside one clustering radius
    P = np.array([[1.0, 0.0, 0.0],
                  [0.5, 0.5, 0.0],
                  [0.0, 0.5 + 1e-9, 0.5 - 1e-9]])
    s = spectrum(from_stochastic(P))
    mults = sorted(k for _, k in s.clusters)
    assert mults == [1, 2]
    assert not s.defective_peripheral


def _cluster_reference(eigs, radius):
    """Greedy chain clustering with merges until stable; clusters ordered by
    the real parts of their centers, and by imaginary part within runs of
    centers whose real parts lie within radius of their neighbours."""
    pts = eigs[np.lexsort((eigs.imag, eigs.real))]
    groups = []
    for lam in pts:
        for g in groups:
            if any(abs(lam - mu) <= radius for mu in g):
                g.append(lam)
                break
        else:
            groups.append([lam])
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if any(abs(a - b) <= radius for a in groups[i] for b in groups[j]):
                    groups[i].extend(groups.pop(j))
                    merged = True
                    break
            if merged:
                break
    clusters = sorted(((complex(np.mean(g)), len(g)) for g in groups),
                      key=lambda c: c[0].real)
    bands = []
    for c in clusters:
        if bands and c[0].real - bands[-1][-1][0].real <= radius:
            bands[-1].append(c)
        else:
            bands.append([c])
    return [c for band in bands for c in sorted(band, key=lambda c: c[0].imag)]


def _tensor_square_eigs(blocks, kraus, seed):
    op = random_unital_cp(AlgebraShape(blocks), kraus, seed=seed)
    return np.linalg.eigvals(tensor(op, op).matrix)


@pytest.mark.parametrize("eigs", [
    _tensor_square_eigs([3], 1, 0),
    _tensor_square_eigs([4], 3, 1),
    _tensor_square_eigs([2, 3], 2, 2),
    np.linalg.eigvals(tensor(*[example2(12, 5)[0].operator] * 2).matrix),
])
def test_cluster_matches_greedy_merge_reference(eigs):
    radius = DEFAULT.tol_cluster
    got = _cluster_labels(eigs, radius)[1]
    ref = _cluster_reference(eigs, radius)
    assert [k for _, k in got] == [k for _, k in ref]
    assert max(abs(a - b) for (a, _), (b, _) in zip(got, ref)) <= 1e-14


def test_conjugate_clusters_keep_their_order_under_rounding():
    # the real parts of a conjugate pair agree only up to rounding; which
    # of the two has the smaller one must not decide the order
    radius = DEFAULT.tol_cluster
    w = np.exp(2j * np.pi / 3)
    orders = []
    for eps in (1e-16, -1e-16):
        eigs = np.array([1.0, w + eps, np.conj(w) - eps, 0.2])
        assert eigs[1].real != eigs[2].real
        labels, clusters = _cluster_labels(eigs, radius)
        orders.append(clusters)
        assert [clusters[i][0] for i in labels] == list(eigs)
    for clusters in orders:
        centers = [c for c, _ in clusters]
        assert np.max(np.abs(np.subtract(centers, [np.conj(w), w, 0.2, 1.0]))) <= 1e-15


def test_cluster_joins_chains():
    radius = DEFAULT.tol_cluster
    # neighbours 0.6 radius apart, ends 1.2 radius apart: one cluster
    chain = np.array([0.5, 0.5 + 0.6 * radius, 0.5 + 1.2 * radius, 1.0])
    assert [k for _, k in _cluster_labels(chain.astype(complex), radius)[1]] == [3, 1]
    pair = np.array([0.5, 0.5 + 1.2 * radius])
    assert [k for _, k in _cluster_labels(pair.astype(complex), radius)[1]] == [1, 1]


def _oracle_operators():
    for blocks in ([2], [3], [1, 1, 2], [2, 3]):
        for kraus in (1, 2, 3, 4):
            yield random_unital_cp(AlgebraShape(blocks), kraus,
                                   seed=60 + kraus + len(blocks))
    yield identity_channel(AlgebraShape([2]))
    yield identity_channel(AlgebraShape([1, 1, 2]))
    for kraus in (1, 2, 3):
        yield _corner_unital_cp(AlgebraShape([3]), kraus, 70 + kraus, DEFAULT)


@pytest.mark.parametrize("op", list(_oracle_operators()))
def test_shared_svd_reads_match_direct_factorizations(op):
    eye = np.eye(op.dim)
    # range_of_defect spans the column space of M - I
    basis = range_of_defect(op)
    ref = scipy.linalg.orth(op.matrix - eye, rcond=DEFAULT.tol_rank)
    assert basis.shape == ref.shape
    assert np.max(np.abs(basis @ basis.conj().T - ref @ ref.conj().T)) <= 1e-10
    # one invariant state per dimension of the dual's fixed space
    null = scipy.linalg.null_space(dual(op).matrix - eye,
                                   rcond=DEFAULT.tol_invariant_state)
    states = invariant_states(op)
    assert len(states) == null.shape[1]
    for psi in states:
        assert psi.is_state(tol=1e-8)
        assert functional_norm(dual(op)(psi) - psi) <= 1e-8
    # Schur-diagonal eigenvalues against a plain eigensolve, as multisets
    got = np.array(spectrum(op).eigenvalues)
    want = np.linalg.eigvals(op.matrix)
    dist = np.abs(got[:, None] - want[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(dist)
    assert np.max(dist[rows, cols]) <= 1e-10


def test_spectrum_is_memoized_per_operator_and_config():
    op = chain2()
    s = spectrum(op)
    assert spectrum(op) is s
    loose = DEFAULT.replace(tol_cluster=1e-6)
    other = spectrum(op, loose)
    assert other is not s
    assert spectrum(op, loose) is other
    # a new operator with the same matrix gets its own summary
    assert spectrum(chain2()) is not s


def test_memoized_arrays_are_read_only():
    op = random_unital_cp(AlgebraShape([2]), 2, seed=4)
    with pytest.raises(ValueError):
        cesaro_projector_spectral(op)[0, 0] = 0.0
    with pytest.raises(ValueError):
        power_limit(chain2()).limit[0, 0] = 0.0


def _cesaro_reference(m, tol=DEFAULT.tol_cluster):
    """Sorted Schur form plus scipy's general Sylvester solver."""
    D = m.shape[0]
    t, z, k = scipy.linalg.schur(m, output="complex",
                                 sort=lambda lam: abs(lam - 1.0) <= tol)
    r = scipy.linalg.solve_sylvester(t[:k, :k], -t[k:, k:], t[:k, k:])
    w = np.zeros((D, D), dtype=complex)
    w[:k, :k] = np.eye(k)
    w[:k, k:] = r
    return z @ w @ z.conj().T


@pytest.mark.parametrize("blocks,kraus", [([2], 1), ([2], 3), ([3], 2),
                                          ([1, 2], 4), ([2, 2], 2)])
def test_triangular_sylvester_matches_general_solver(blocks, kraus):
    op = random_unital_cp(AlgebraShape(blocks), kraus, seed=len(blocks) + kraus)
    got = _analyse(op.matrix, DEFAULT).cesaro()
    assert np.max(np.abs(got - _cesaro_reference(op.matrix))) <= 1e-10
