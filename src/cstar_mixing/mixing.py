"""Mixing-hierarchy classification and theorem verification.

Decision policy: every verdict is grounded in an exact spectral criterion
(fixed-space dimension, peripheral spectrum, Cesàro and power projectors);
the definition-based Cesàro estimators run alongside as cross-validation
and a conflict raises MethodDisagreement rather than being averaged away.
Estimators use finite horizons (2**12 steps for Cesàro means, 2**10 for
power limits) and the dyadic-decrease test shared with `sequences`:
a trace counts as vanishing when its trailing-window maximum at N is below
the absolute threshold or at most ``Config.dyadic_factor`` (0.75) times its
value at N/2, by ``sequences.dyadic_decreasing``. The window maximum
(rather than a single sample) keeps oscillating-but-decaying traces from
passing or failing on the phase they happen to be caught at.
Every T^k step comes from ``orbit``: orbit sums by dyadic doubling for the
linear estimators, strided walks for those that read every step, and the
squaring ladder for the power estimators. The mean of norms stops at the
end of the first stride after which every probe's Frobenius norm is at
most 1e-14, about 50 ulp: a unital positive map contracts the operator
norm, so every later term is at most that floor, and the terms not walked
count as the floor. Its trace records the horizon walked as
``floor_step`` (None when the floor is never reached).

Each property has one implementation, its public ``check_*``, which
``classify`` and the verifier's trials call. Inside a ``_sharing()`` scope,
``_shared(sys, name, make)`` memoizes per (system, name) what several
checks read: the tensor square, the Cesàro mean of ||T^k x - phi(x) 1||
(route C of strict weak mixing and condition (i) of the phi-ergodic
property, drawn at its first reader's seed) and each check's result. The
scope drops them on exit; outside one, ``make()`` just runs. Estimator
norms are operator norms of Hermitian elements (the probes are Hermitian,
and every Markov operator is checked to preserve Hermiticity at
construction), so they are taken as the largest eigenvalue modulus by
eigvalsh rather than by an SVD.

Verifier ensembles draw seeded unital CP channels with a cycling Kraus
count (1, 2, 3, 4), so unitary conjugations and properly dissipative
channels both appear. The invariant state is always taken to be the
canonical one (Cesàro average of the maximally mixed state under the dual),
which equals the unique invariant state whenever there is one; no trial is
ever skipped. Trials run one after another in the calling thread, so
numpy's BLAS keeps the cores to itself.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    Functional,
    functional_norm,
    hermitian_basis_matrix,
    hermitian_operator_norms,
    product_pairing_matrix,
    random_hermitian_element,
    random_functional,
    random_state,
    trace_norms,
)
from .channel import (
    MarkovOperator,
    canonical_invariant_state,
    dual,
    from_kraus,
    invariant_states,
    random_unital_cp,
    tensor,
)
from .config import Config, DEFAULT
from .errors import (
    CstarMixingError,
    HierarchyViolation,
    ImplicationViolation,
    InvariantStateMismatch,
    MethodDisagreement,
    RequiresCP,
    ShapeMismatch,
    UnknownTheorem,
    ValidationError,
)
from .orbit import (
    _dyadic_powers,
    _orbit,
    _orbit_sums,
    _OrbitLayout,
    _read_samples,
    _sample_lengths,
)
from .sequences import BoundedSequence, check_kvn_equivalence, dyadic_decreasing
from .spectral import (
    _spectral_data,
    cesaro_projector_spectral,
    power_limit,
    range_of_defect,
    spectrum,
)

__all__ = [
    "THEOREM_NAMES",
    "CheckResult",
    "DynamicalSystem",
    "MixingReport",
    "ObstructionRecord",
    "ProbeRecord",
    "Unsupported",
    "VerificationRecord",
    "check_ergodic",
    "check_exact",
    "check_peripheral_obstruction",
    "check_phi_ergodic_equiv",
    "check_strictly_ergodic",
    "check_strictly_weak_mixing",
    "check_weakly_mixing",
    "classify",
    "probe_problem1",
    "tensor_system",
    "verify_theorem",
]

THEOREM_NAMES = (
    "thm_3_2",
    "thm_4_3",
    "thm_4_5",
    "prop_4_4",
    "thm_4_6",
    "remark_swm_implies_wm",
)

PROPERTIES = (
    "ergodic",
    "weakly_mixing",
    "strictly_ergodic",
    "strictly_weak_mixing",
    "exact",
    "phi_ergodic_equiv",
)


@dataclass(frozen=True)
class Unsupported:
    """Placeholder verdict for a property or route that could not be decided."""

    reason: str

    def __repr__(self) -> str:  # keeps reports readable
        return f"unsupported({self.reason})"


@dataclass(frozen=True, eq=False)
class DynamicalSystem:
    """A state-preserving system: unital Markov operator plus invariant state.

    Keeps the configuration it was validated under, so serialized copies
    reproduce the same acceptance thresholds.
    """

    shape: AlgebraShape
    operator: MarkovOperator
    state: Functional
    config: Config

    def __init__(self, operator: MarkovOperator, state: Functional,
                 config: Config = DEFAULT) -> None:
        if operator.shape != state.shape:
            raise ShapeMismatch(f"{operator.shape} vs {state.shape}")
        tol = config.tol_invariant_state
        if not state.is_state(tol):
            raise ValidationError("the supplied functional is not a state")
        drift = functional_norm(dual(operator)(state) - state)
        if drift > tol:
            raise ValidationError(
                f"state is not invariant: ||phi.T - phi||_1 = {drift:.3e}")
        object.__setattr__(self, "shape", operator.shape)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "config", config)


def tensor_system(sys: DynamicalSystem, config: Config = DEFAULT) -> DynamicalSystem:
    """(T tensor T, phi tensor phi) on the tensor-square algebra."""
    big = tensor(sys.operator, sys.operator)
    return DynamicalSystem(big, sys.state.tensor(sys.state), config)


@dataclass(frozen=True, eq=False)
class CheckResult:
    verdict: bool | Unsupported
    routes: dict
    witnesses: dict


@dataclass(frozen=True, eq=False)
class MixingReport:
    """Verdicts with their witnesses and per-property route agreement.

    Hierarchy invariants are enforced at assembly: exact implies strictly
    weak mixing, which implies both strict ergodicity and weak mixing, each
    of which implies ergodicity; and the strictly-weak-mixing and exactness
    verdicts must coincide (the finite-dimensional collapse). Undecided
    entries are skipped by these checks.
    """

    verdicts: dict
    witnesses: dict
    method_agreement: dict
    config: Config
    seed: int


@dataclass(frozen=True, eq=False)
class ObstructionRecord:
    """A peripheral dual eigenpair, when one exists.

    ``alpha`` is the eigenvalue (|alpha| = 1, alpha != 1), ``witness`` the
    eigenfunctional normalized to ||h||_1 = 1, ``residual`` the defect
    ||h.T - alpha h||_1 of the eigen relation.
    """

    clean: bool
    alpha: complex | None = None
    witness: Functional | None = field(default=None, repr=False)
    residual: float = 0.0


# ---------------------------------------------------------------------------
# per-call sharing
# ---------------------------------------------------------------------------

_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "cstar_mixing_memo", default=None)


@contextlib.contextmanager
def _sharing():
    """A scope in which ``_shared`` computes each (system, name) once; on exit
    the memo is emptied, even if a traceback still holds the dict."""
    memo: dict = {}
    token = _MEMO.set(memo)
    try:
        yield
    finally:
        _MEMO.reset(token)
        memo.clear()


def _shared(sys: DynamicalSystem, name: str, make):
    """``make()``, memoized per (system, name) inside a ``_sharing`` scope
    and computed afresh outside one."""
    memo = _MEMO.get()
    if memo is None:
        return make()
    if (sys, name) not in memo:
        memo[sys, name] = make()
    return memo[sys, name]


# ---------------------------------------------------------------------------
# estimator machinery
# ---------------------------------------------------------------------------

def _thread_count() -> int:
    """Trial threads of ``verify_theorem``: always 1, the calling thread.
    Nothing in the library reads it; perfbench's ``env`` line does."""
    return 1


def _dyadic_passes(half: np.ndarray, full: np.ndarray, tol: float,
                   cfg: Config) -> bool:
    """Whether every trace (its values at N/2 and N) passes
    ``dyadic_decreasing`` at ``cfg.dyadic_factor``."""
    return all(dyadic_decreasing((h, f), tol, cfg.dyadic_factor)
               for h, f in zip(half, full))


def _random_probe_elements(sys: DynamicalSystem, rng: np.random.Generator,
                           cfg: Config) -> list[AlgebraElement]:
    """Random Hermitian elements of unit operator norm, drawn as
    ``random_hermitian_element`` draws them and scaled by one batched norm."""
    hs = [random_hermitian_element(sys.shape, rng, normalized=False)
          for _ in range(cfg.estimator_pairs)]
    norms = hermitian_operator_norms(sys.shape, np.stack([h.vec() for h in hs]))
    return [h * (1.0 / nrm) if nrm > 0 else h for h, nrm in zip(hs, norms)]


def _correlation_running(sys: DynamicalSystem, rows: np.ndarray,
                         consts: np.ndarray, x0: np.ndarray, n: int) -> np.ndarray:
    """The correlation series a_k[j] = rows[j] . T^k x_j - consts[j] for
    every k < n, as an (n, m) array; columns of x0 are the probes. Only
    ``_eq2`` needs every k; the Cesàro means of the linear estimators come
    from ``_orbit_sums``."""
    m = x0.shape[1]
    s, layout, strides = _orbit(sys.operator, x0, n)
    rows_wide = layout.rows_in(np.tile(rows, (s, 1)))
    # one stride of s steps per row; row b of the (n/s, s*m) array reshapes
    # to steps b*s .. b*s + s - 1, so the whole array reshapes to (n, m)
    pairings = np.empty((n // s, s * m), dtype=complex)
    for b, x in enumerate(strides):
        pairings[b] = np.einsum("jab,ajb->j", rows_wide, x)
    series = pairings.reshape(n, m)
    series -= consts
    return series


def _correlation_probes(sys: DynamicalSystem, rng: np.random.Generator,
                        cfg: Config) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random pairs (x_j, y_j) as correlation arguments: rows phi(y_j .),
    constants phi(y_j) phi(x_j), columns vec(x_j)."""
    xs = _random_probe_elements(sys, rng, cfg)
    ys = _random_probe_elements(sys, rng, cfg)
    phi = sys.state
    rows = np.stack([
        Functional(sys.shape, [s @ b for s, b in zip(phi.blocks, y.blocks)]).row()
        for y in ys])
    consts = np.array([phi(y) * phi(x) for y, x in zip(ys, xs)])
    x0 = np.column_stack([x.vec() for x in xs])
    return rows, consts, x0


def _signed_means(sys: DynamicalSystem, rows: np.ndarray, consts: np.ndarray,
                  x0: np.ndarray, cfg: Config) -> tuple[dict, np.ndarray, np.ndarray]:
    """|(1/k) sum_{j<k} rows[i] . T^j x_i - consts[i]| at the ``_orbit_sums``
    lengths, read out by ``_read_samples``."""
    n = cfg.estimator_n
    w = min(cfg.dyadic_window, n // 2)
    ks, layout, sums = _orbit_sums(sys.operator, x0, n, w)
    k = ks[:, None]
    paired = np.einsum("iab,akib->ki", layout.rows_in(rows), sums)
    means = np.abs(paired - k * consts) / k
    return _read_samples(means, n, w)


def _eq1_estimator(sys: DynamicalSystem, rng: np.random.Generator,
                   cfg: Config) -> tuple[bool, dict]:
    """Signed Cesàro means of phi(y T^k x) - phi(y) phi(x), random pairs."""
    trace, half, full = _signed_means(sys, *_correlation_probes(sys, rng, cfg), cfg)
    ok = _dyadic_passes(half, full, cfg.estimator_abs, cfg)
    return ok, {"trace": trace, "final": [float(v) for v in full]}


def _eq2_estimator(sys: DynamicalSystem, rng: np.random.Generator,
                   cfg: Config) -> tuple[bool, dict]:
    """Vanishing of |phi(y T^k x) - phi(y) phi(x)| in the three equivalent
    senses of the bounded-sequence lemma, per random pair."""
    rows, consts, x0 = _correlation_probes(sys, rng, cfg)
    n = cfg.estimator_n
    series = _correlation_running(sys, rows, consts, x0, n)
    verdicts, finals = [], []
    for j in range(series.shape[1]):
        rec = check_kvn_equivalence(BoundedSequence(np.abs(series[:, j])),
                                    n, cfg.estimator_abs, cfg.dyadic_factor)
        verdicts.append(rec.tending)
        finals.append(rec.sq_trace[-1])
    return all(verdicts), {"per_pair": verdicts, "final_sq_means": finals}


def _state_mean_estimator(sys: DynamicalSystem, rng: np.random.Generator,
                          cfg: Config) -> tuple[bool, dict]:
    """Signed Cesàro means of psi(T^k x) - phi(x) for random states psi."""
    xs = _random_probe_elements(sys, rng, cfg)
    psis = [random_state(sys.shape, rng) for _ in range(cfg.estimator_pairs)]
    rows = np.stack([p.row() for p in psis])
    consts = np.array([sys.state(x) for x in xs])
    x0 = np.column_stack([x.vec() for x in xs])
    trace, half, full = _signed_means(sys, rows, consts, x0, cfg)
    ok = _dyadic_passes(half, full, cfg.estimator_abs, cfg)
    return ok, {"trace": trace}


def _centered_columns(sys: DynamicalSystem, xs: list[AlgebraElement]) -> np.ndarray:
    """Columns vec(x_j - phi(x_j) 1); T acts on them exactly as on the
    deviation T^k x - phi(x) 1 because T is unital."""
    one = AlgebraElement.identity(sys.shape).vec()
    return np.column_stack([x.vec() - sys.state(x) * one for x in xs])


# Orbit norms at or below this are rounding noise: about 50 ulp on the
# unit-norm probes, whose decayed orbits settle near 1e-15 in operator norm.
_NORM_FLOOR = 1e-14


def _orbit_norm_series(sys: DynamicalSystem, x0: np.ndarray,
                       n: int) -> tuple[np.ndarray, int | None]:
    """(w, floor_step) with w[k, j] = ||T^k applied to column j|| for k < n
    (operator norm); the columns are Hermitian, and T preserves Hermiticity.

    The orbit stops at the end of the first stride after which every
    column's Frobenius norm, an upper bound on its operator norm, is at most
    ``_NORM_FLOOR``; floor_step is the number of steps walked by then, None
    if the orbit never gets there. A unital positive map is an operator-norm
    contraction (Russo-Dye), so no later norm exceeds the floor, and the
    rows past floor_step are filled with it: every Cesàro mean of w stays an
    upper bound of the true one, up to rounding. For an operator whose
    positivity is only declared, the bound rests on that claim, as the
    Jordan-part argument of ``invariant_states`` does.
    """
    d, m = x0.shape
    s, layout, strides = _orbit(sys.operator, x0, n)
    traj = np.empty((n, m, d), dtype=complex)
    floor_step = None
    for b, x in zip(range(0, n, s), strides):
        traj[b:b + s] = layout.columns_out(x).T.reshape(s, m, d)
        if np.linalg.norm(traj[b + s - 1], axis=1).max() <= _NORM_FLOOR:
            floor_step = b + s
            break
    walked = n if floor_step is None else floor_step
    norms = np.full((n, m), _NORM_FLOOR)
    norms[:walked] = hermitian_operator_norms(sys.shape, traj[:walked])
    return norms, floor_step


def _mean_norm_estimator(sys: DynamicalSystem, rng: np.random.Generator,
                         cfg: Config) -> tuple[bool, dict]:
    """Cesàro means of ||T^k x - phi(x) 1||, the dominating surrogate for
    the sup-over-unit-ball criterion. ``floor_step`` is the horizon the
    orbit walked before every probe reached the rounding floor (None: the
    whole horizon, without reaching it); see ``_orbit_norm_series``."""
    xs = _random_probe_elements(sys, rng, cfg)
    x0 = _centered_columns(sys, xs)
    n = cfg.estimator_n
    w = min(cfg.dyadic_window, n // 2)
    norms, floor_step = _orbit_norm_series(sys, x0, n)
    running = np.cumsum(norms, axis=0) / np.arange(1, n + 1)[:, None]
    trace, half, full = _read_samples(running[_sample_lengths(n, w) - 1], n, w)
    ok = _dyadic_passes(half, full, cfg.estimator_abs, cfg)
    return ok, {"trace": trace, "final": [float(v) for v in full],
                "floor_step": floor_step}


def _norm_trace(sys: DynamicalSystem, config: Config, seed: int) -> tuple[bool, dict]:
    """The ``_shared`` Cesàro-of-norms trace: ``_mean_norm_estimator`` at
    ``seed``, route C of strict weak mixing and phi-ergodic condition (i)."""
    return _shared(sys, "cesaro_of_norms", lambda: _mean_norm_estimator(
        sys, np.random.default_rng(seed), config))


def _cesaro_norm_estimator(sys: DynamicalSystem, rng: np.random.Generator,
                           cfg: Config) -> tuple[bool, dict]:
    """||(1/k) sum T^j x - phi(x) 1|| sampled on trailing windows at N/2, N."""
    xs = _random_probe_elements(sys, rng, cfg)
    x0 = _centered_columns(sys, xs)
    n = cfg.estimator_n
    w = min(cfg.dyadic_window, n // 2)
    ks, layout, sums = _orbit_sums(sys.operator, x0, n, w)
    # the 2w window means, moved out together for one norm computation
    means = layout.columns_out(sums[:, -2 * w:]) / ks[-2 * w:, None]
    norms = hermitian_operator_norms(sys.shape, means.transpose(1, 2, 0))
    half = norms[:w].max(axis=0)
    full = norms[w:].max(axis=0)
    ok = _dyadic_passes(half, full, cfg.estimator_abs, cfg)
    return ok, {"final": [float(v) for v in full],
                "half": [float(v) for v in half]}


def _power_estimators(sys: DynamicalSystem, rng: np.random.Generator,
                      cfg: Config) -> dict:
    """(ok, trace) at the power horizon n and at n/2, from one squaring
    ladder of T, for "power_norm", ||T^n x - phi(x) 1||, then "weak_power",
    psi(T^n x) -> phi(x) for random states psi (drawn in that order)."""
    power = _dyadic_powers(_OrbitLayout(sys.operator.matrix, None, None))
    i = cfg.exact_power_n.bit_length() - 1
    p_half, p_full = power(i - 1).a, power(i).a
    x_norm = _centered_columns(sys, _random_probe_elements(sys, rng, cfg))
    x_weak = _centered_columns(sys, _random_probe_elements(sys, rng, cfg))
    rows = np.stack([random_state(sys.shape, rng).row()
                     for _ in range(cfg.estimator_pairs)])
    n_half, n_full = (hermitian_operator_norms(sys.shape, (p @ x_norm).T)
                      for p in (p_half, p_full))
    w_half, w_full = (np.abs(np.einsum("jd,dj->j", rows, p @ x_weak))
                      for p in (p_half, p_full))
    return {
        "power_norm": (_dyadic_passes(n_half, n_full, cfg.estimator_abs, cfg),
                       {"at_half": [float(v) for v in n_half],
                        "at_full": [float(v) for v in n_full]}),
        "weak_power": (_dyadic_passes(w_half, w_full, cfg.estimator_abs, cfg),
                       {"at_full": [float(v) for v in w_full]}),
    }


def _dual_power_estimator(sys: DynamicalSystem, rng: np.random.Generator,
                          cfg: Config) -> tuple[bool, dict]:
    """||psi . T^n - psi(1) phi||_1 at the power horizon, random functionals."""
    one = AlgebraElement.identity(sys.shape)
    power = _dyadic_powers(_OrbitLayout(dual(sys.operator).matrix, None, None))
    i = cfg.exact_power_n.bit_length() - 1
    d_half, d_full = power(i - 1).a, power(i).a
    psis = [random_functional(sys.shape, rng) for _ in range(cfg.estimator_pairs)]
    v = np.column_stack([psi.vec() for psi in psis])
    target = np.outer(sys.state.vec(), [psi(one) for psi in psis])
    vals_half = trace_norms(sys.shape, (d_half @ v - target).T)
    vals_full = trace_norms(sys.shape, (d_full @ v - target).T)
    ok = _dyadic_passes(vals_half, vals_full, cfg.exact_estimator_tol, cfg)
    return ok, {"at_full": [float(x) for x in vals_full]}


# ---------------------------------------------------------------------------
# spectral criteria
# ---------------------------------------------------------------------------

def _rank_one_matrix(sys: DynamicalSystem) -> np.ndarray:
    """Matrix of x -> phi(x) 1, the limit every exact system's powers reach."""
    return np.outer(AlgebraElement.identity(sys.shape).vec(), sys.state.row())


def _ergodic_spectral(sys: DynamicalSystem, cfg: Config) -> tuple[bool, dict]:
    proj = cesaro_projector_spectral(sys.operator, cfg)
    summ = spectrum(sys.operator, cfg)
    h = hermitian_basis_matrix(sys.shape)
    q = product_pairing_matrix(sys.state)
    gram = h.T @ q @ (proj @ h)
    g = h.T @ sys.state.row()
    resid = np.abs(gram - np.outer(g, g))
    # the first pair within rounding of the largest residual: symmetric
    # systems tie many pairs (1,728 on example 2's tensor square), and
    # rounding alone should not choose among them
    top = float(resid.max())
    first = int(np.argmax(resid >= top * (1.0 - 1e-9)))
    p, r = np.unravel_index(first, resid.shape)
    return bool(top <= cfg.tol_spectral), {
        "residual": top,
        "violating_pair": (int(p), int(r)),
        "fixed_space_dim": summ.fixed_space_dim,
        "peripheral": list(summ.peripheral),
    }


def _swm_spectral(sys: DynamicalSystem, cfg: Config) -> tuple[bool, dict]:
    proj = cesaro_projector_spectral(sys.operator, cfg)
    summ = spectrum(sys.operator, cfg)
    off = [c for c in summ.peripheral if abs(c - 1.0) > cfg.tol_cluster]
    verdict = summ.fixed_space_dim == 1 and not off
    wit = {"fixed_space_dim": summ.fixed_space_dim,
           "peripheral": list(summ.peripheral),
           "peripheral_off_one": off}
    if verdict:
        resid = float(np.max(np.abs(proj - _rank_one_matrix(sys))))
        wit["rank_one_residual"] = resid
        if resid > cfg.tol_spectral:
            raise MethodDisagreement(
                "trivial fixed space and peripheral spectrum {1}, but the "
                f"spectral projector is not the rank-one map (residual {resid:.3e})")
    return verdict, wit


def _exact_spectral(sys: DynamicalSystem, cfg: Config) -> tuple[bool, dict]:
    pl = power_limit(sys.operator, cfg)
    if pl.diverges_peripheral:
        return False, {"diverging_peripheral": list(pl.offending)}
    resid = float(np.max(np.abs(pl.limit - _rank_one_matrix(sys))))
    return resid <= cfg.tol_spectral, {"limit_residual": resid}


# ---------------------------------------------------------------------------
# the six property checks
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _on_path(prefix: str):
    """Re-raise a MethodDisagreement from a nested check with ``prefix``,
    the path to it, in front of its message."""
    try:
        yield
    except MethodDisagreement as e:
        raise MethodDisagreement(prefix + str(e), e.report) from e


def check_ergodic(sys: DynamicalSystem, config: Config = DEFAULT,
                  seed: int = 0) -> CheckResult:
    """Cesàro correlation criterion, decided spectrally.

    Spectral route: with C the Cesàro projector, phi(y C(x)) must equal
    phi(y) phi(x) on all Hermitian basis pairs. Estimator route: the signed
    Cesàro average of phi(y T^k x) - phi(y) phi(x) vanishes for random
    pairs. Conflict raises MethodDisagreement.
    """
    spectral, wit = _ergodic_spectral(sys, config)
    rng = np.random.default_rng(seed)
    estim, trace = _eq1_estimator(sys, rng, config)
    if estim != spectral:
        raise MethodDisagreement(
            f"ergodicity: spectral says {spectral}, Cesàro estimator says "
            f"{estim} (final window maxima {trace['final']})")
    wit["estimator"] = trace
    return CheckResult(spectral, {"spectral": spectral, "estimator": estim}, wit)


def check_strictly_ergodic(sys: DynamicalSystem, config: Config = DEFAULT,
                           seed: int = 0) -> CheckResult:
    """Uniqueness of the invariant state: a 1-cluster of one eigenvalue.

    Cross-checks: the norm-Cesàro estimator ||(1/n) sum T^k x - phi(x) 1||,
    the rank identity rank(T - id) = D - 1 from the SVD of M - I, and
    invariant_states returning exactly the system state. A unique invariant
    state different from phi raises InvariantStateMismatch.
    """
    data = _spectral_data(sys.operator, config)
    spectral = data.one_count == 1
    rng = np.random.default_rng(seed)
    estim, trace = _cesaro_norm_estimator(sys, rng, config)
    d = sys.shape.dim
    rank_crit = range_of_defect(sys.operator, config).shape[1] == d - 1
    states = invariant_states(sys.operator, config)
    unique = len(states) == 1
    if unique:
        gap = functional_norm(states[0] - sys.state)
        if gap > config.tol_invariant_state:
            raise InvariantStateMismatch(
                f"unique invariant state differs from the system state "
                f"by {gap:.3e} in trace norm")
    routes = {"spectral": spectral, "estimator": estim,
              "rank": rank_crit, "unique_state": unique}
    if not (spectral == estim == rank_crit == unique):
        raise MethodDisagreement(f"strict ergodicity routes disagree: {routes}")
    wit = {"fixed_space_dim": data.summary.fixed_space_dim,
           "invariant_state_count": len(states),
           "estimator": trace}
    return CheckResult(spectral, routes, wit)


def check_weakly_mixing(sys: DynamicalSystem, config: Config = DEFAULT,
                        seed: int = 0) -> CheckResult:
    """Ergodicity of the tensor square; requires verified complete positivity.

    The tensor-square route (itself spectrally decided and estimator
    cross-checked) is the verdict; the correlation-modulus route checks
    that |phi(y T^k x) - phi(y) phi(x)| vanishes in Cesàro mean, through
    the three-way bounded-sequence equivalence. A disagreement inside the
    tensor-square check is re-raised prefixed "weak mixing → tensor square
    → ".
    """
    if not sys.operator.is_cp_verified():
        raise RequiresCP(
            "weak mixing is decided through the tensor square, which needs "
            "a verified completely positive operator")
    ts = _shared(sys, "tensor_square", lambda: tensor_system(sys, config))
    with _on_path("weak mixing → tensor square → "):
        primary = check_ergodic(ts, config, seed=seed + 1)
    rng = np.random.default_rng(seed)
    secondary, trace = _eq2_estimator(sys, rng, config)
    if secondary != primary.verdict:
        raise MethodDisagreement(
            f"weak mixing: tensor-square ergodicity says {primary.verdict}, "
            f"correlation-modulus estimator says {secondary}")
    wit = {"tensor": primary.witnesses, "estimator": trace}
    return CheckResult(primary.verdict,
                       {"tensor_ergodic": primary.verdict, "estimator": secondary},
                       wit)


def check_strictly_weak_mixing(sys: DynamicalSystem, config: Config = DEFAULT,
                               seed: int = 0) -> CheckResult:
    """Trivial fixed space plus peripheral spectrum {1}.

    Route A is spectral (including a rank-one consistency check of the
    projector); route B is strict ergodicity of the tensor square (skipped
    as unsupported without verified complete positivity); route C is the
    Cesàro mean of ||T^k x - phi(x) 1||, which dominates the sup-over-
    functionals criterion. All decided routes must agree; a disagreement
    inside route B's check is re-raised prefixed "strict weak mixing →
    tensor square → ". Route C is the same trace as condition (i) of
    check_phi_ergodic_equiv, and the tensor square the one
    check_weakly_mixing reads; both are ``_shared``.
    """
    a, wit = _swm_spectral(sys, config)
    c, wit["estimator"] = _norm_trace(sys, config, seed)
    if sys.operator.is_cp_verified():
        ts = _shared(sys, "tensor_square", lambda: tensor_system(sys, config))
        with _on_path("strict weak mixing → tensor square → "):
            b: bool | Unsupported = check_strictly_ergodic(
                ts, config, seed=seed + 1).verdict
    else:
        b = Unsupported("tensor route requires verified complete positivity")
    if c != a or (isinstance(b, bool) and b != a):
        raise MethodDisagreement(
            f"strict weak mixing routes disagree: spectral={a}, tensor={b}, "
            f"norm-Cesàro={c}")
    return CheckResult(a, {"spectral": a, "tensor": b, "norm_cesaro": c}, wit)


def check_exact(sys: DynamicalSystem, config: Config = DEFAULT,
                seed: int = 0) -> CheckResult:
    """Convergence of T^n to x -> phi(x) 1, i.e. of dual powers to phi.

    Spectral route: the power limit exists and is the rank-one map.
    Estimator route: ||psi . T^n - psi(1) phi||_1 at the power horizon for
    random functionals psi.
    """
    spectral, wit = _exact_spectral(sys, config)
    rng = np.random.default_rng(seed)
    estim, trace = _dual_power_estimator(sys, rng, config)
    if estim != spectral:
        raise MethodDisagreement(
            f"exactness: spectral power limit says {spectral}, dual-power "
            f"estimator says {estim} (values {trace['at_full']})")
    wit["estimator"] = trace
    return CheckResult(spectral, {"spectral": spectral, "estimator": estim}, wit)


def check_phi_ergodic_equiv(sys: DynamicalSystem, config: Config = DEFAULT,
                            seed: int = 0) -> CheckResult:
    """Invariance-characterizes-phi property, finite-dimensional form.

    The definitional quantifier (over all continuous homogeneous normalized
    functionals on the positive cone) is not finitely checkable; in finite
    dimension the property collapses onto exactness, which is what the
    verdict reports. The observable scaffolding is still exercised: the
    Cesàro-of-norms trace (i), the power-norm trace (ii), and weak power
    convergence against random states (iv) must satisfy (i) iff (ii), and
    (ii) implies (iv); a breach raises ImplicationViolation. Condition (i)
    is the same trace as route C of check_strictly_weak_mixing; it and the
    exactness result are ``_shared``.
    """
    exact = _shared(sys, "exact", lambda: check_exact(sys, config, seed))
    observed, traces, holds = _observed_conditions(sys, config, seed)
    if not holds:
        raise ImplicationViolation(
            f"observed condition pattern breaks the proven implications: "
            f"{observed}")
    routes = {"exact": exact.verdict,
              "observed_power_norm": observed["power_norm"]}
    return CheckResult(exact.verdict, routes,
                       {"observed": observed, "traces": traces})


def _observed_conditions(sys: DynamicalSystem, config: Config,
                         seed: int) -> tuple[dict, dict, bool]:
    """Observed verdicts, traces, and whether they keep (i) iff (ii) and
    (ii) implies (iv): (i) is ``_norm_trace``, (ii) power norm and (iv) weak
    power are drawn from a fresh ``seed + 2`` generator."""
    results = {"cesaro_of_norms": _norm_trace(sys, config, seed),
               **_power_estimators(sys, np.random.default_rng(seed + 2), config)}
    observed = {k: ok for k, (ok, _) in results.items()}
    traces = {k: tr for k, (_, tr) in results.items()}
    i, ii, iv = observed.values()
    return observed, traces, i == ii and (iv or not ii)


def check_peripheral_obstruction(sys: DynamicalSystem,
                                 config: Config = DEFAULT) -> ObstructionRecord:
    """Search the dual spectrum for an eigenpair h . T = alpha h, |alpha| = 1,
    alpha != 1, the explicit witness that rules out strict weak mixing."""
    dm = dual(sys.operator).matrix
    w, v = np.linalg.eig(dm)
    candidates = [
        i for i in range(w.size)
        if abs(w[i]) >= 1.0 - config.tol_peripheral
        and abs(w[i] - 1.0) > config.tol_cluster
    ]
    if not candidates:
        return ObstructionRecord(clean=True)
    # moduli within tol_peripheral of the largest tie (a rotation's roots of
    # unity differ only by rounding); the smallest angle in [0, 2 pi) wins
    top = max(abs(w[j]) for j in candidates)
    i = min((j for j in candidates if abs(w[j]) >= top - config.tol_peripheral),
            key=lambda j: np.angle(w[j]) % (2 * np.pi))
    h = Functional.from_vec(sys.shape, v[:, i])
    h = h * (1.0 / functional_norm(h))
    resid = functional_norm(
        Functional.from_vec(sys.shape, dm @ h.vec()) - complex(w[i]) * h)
    return ObstructionRecord(clean=False, alpha=complex(w[i]),
                             witness=h, residual=float(resid))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

_CHAIN = (
    ("exact", "strictly_weak_mixing"),
    ("strictly_weak_mixing", "strictly_ergodic"),
    ("strictly_weak_mixing", "weakly_mixing"),
    ("strictly_ergodic", "ergodic"),
    ("weakly_mixing", "ergodic"),
)


def _enforce_hierarchy(verdicts: dict) -> None:
    for stronger, weaker in _CHAIN:
        a, b = verdicts[stronger], verdicts[weaker]
        if isinstance(a, bool) and isinstance(b, bool) and a and not b:
            raise HierarchyViolation(f"{stronger} holds but {weaker} does not")
    swm, ex = verdicts["strictly_weak_mixing"], verdicts["exact"]
    if isinstance(swm, bool) and isinstance(ex, bool) and swm != ex:
        raise HierarchyViolation(
            f"strictly_weak_mixing = {swm} but exact = {ex}; these coincide "
            f"in finite dimension")


def classify(sys: DynamicalSystem, config: Config = DEFAULT,
             seed: int = 0) -> MixingReport:
    """Run every property check and assemble the full report.

    A MethodDisagreement raised by any check is re-raised with the partial
    report attached (``.report``), so the conflict is inspectable rather
    than silently resolved.

    The six checks run in one ``_sharing`` scope, so the tensor square,
    the Cesàro-of-norms trace and the exactness result are each computed
    once (see the module docstring) and dropped on return or raise; nothing
    of them is kept on the system.
    """
    verdicts: dict = {}
    witnesses: dict = {}
    agreement: dict = {}
    checks = (
        ("ergodic", check_ergodic),
        ("strictly_ergodic", check_strictly_ergodic),
        ("weakly_mixing", check_weakly_mixing),
        ("strictly_weak_mixing", check_strictly_weak_mixing),
        ("exact", check_exact),
        ("phi_ergodic_equiv", check_phi_ergodic_equiv),
    )
    with _sharing():
        for offset, (name, check) in enumerate(checks):
            try:
                res = _shared(sys, name, functools.partial(
                    check, sys, config, seed=seed + 10 * offset))
            except RequiresCP as e:
                verdicts[name] = Unsupported(str(e))
                agreement[name] = {"routes": {}, "agreed": True}
                continue
            except MethodDisagreement as e:
                verdicts[name] = Unsupported("method disagreement")
                agreement[name] = {"routes": {}, "agreed": False,
                                   "detail": str(e)}
                e.report = MixingReport(verdicts, witnesses, agreement, config,
                                        seed)
                raise
            verdicts[name] = res.verdict
            witnesses[name] = res.witnesses
            agreement[name] = {"routes": res.routes, "agreed": True}

    obstruction = check_peripheral_obstruction(sys, config)
    witnesses["peripheral_obstruction"] = {
        "clean": obstruction.clean,
        "alpha": obstruction.alpha,
        "residual": obstruction.residual,
    }
    summ = spectrum(sys.operator, config)
    witnesses["fixed_space_dim"] = summ.fixed_space_dim
    witnesses["peripheral"] = list(summ.peripheral)

    _enforce_hierarchy(verdicts)
    return MixingReport(verdicts, witnesses, agreement, config, seed)


# ---------------------------------------------------------------------------
# theorem verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VerificationRecord:
    name: str
    shape: AlgebraShape
    trials: int
    seed: int
    passes: int
    failures: int
    counterexample: dict | None


def _ensemble_system(shape: AlgebraShape, trial: int, seed: int,
                     config: Config) -> tuple[DynamicalSystem, int]:
    kraus_count = (trial % 4) + 1
    op = random_unital_cp(shape, kraus_count, seed=seed + trial, config=config)
    phi = canonical_invariant_state(op, config)
    return DynamicalSystem(op, phi, config), kraus_count


def _trial_thm_3_2(sys, config, seed):
    """The strict-ergodicity routes and the state-mean estimator."""
    sides = dict(check_strictly_ergodic(sys, config, seed).routes)
    sides["state_mean"], _ = _state_mean_estimator(
        sys, np.random.default_rng(seed + 1), config)
    return len(set(sides.values())) == 1, sides


def _trial_thm_4_3(sys, config, seed):
    """The strict-weak-mixing routes; a disagreement raises."""
    return True, check_strictly_weak_mixing(sys, config, seed).routes


def _trial_thm_4_5(sys, config, seed):
    """The weak-mixing routes; a disagreement raises."""
    return True, check_weakly_mixing(sys, config, seed).routes


def _trial_prop_4_4(sys, config, seed):
    swm, _ = _swm_spectral(sys, config)
    obs = check_peripheral_obstruction(sys, config)
    sides = {"strictly_weak_mixing": swm, "obstruction_clean": obs.clean,
             "alpha": obs.alpha}
    return (not swm) or obs.clean, sides


def _trial_thm_4_6(sys, config, seed):
    observed, _, holds = _observed_conditions(sys, config, seed)
    swm, _ = _swm_spectral(sys, config)
    exact, _ = _exact_spectral(sys, config)
    sides = {**observed, "swm_spectral": swm, "exact_spectral": exact}
    return holds and swm == exact, sides


def _trial_remark(sys, config, seed):
    with _sharing():
        swm = check_strictly_weak_mixing(sys, config, seed).verdict
        wm = check_weakly_mixing(sys, config, seed + 5).verdict
    sides = {"strictly_weak_mixing": swm, "weakly_mixing": wm}
    return (not swm) or wm is True, sides


_TRIALS = {
    "thm_3_2": _trial_thm_3_2,
    "thm_4_3": _trial_thm_4_3,
    "thm_4_5": _trial_thm_4_5,
    "prop_4_4": _trial_prop_4_4,
    "thm_4_6": _trial_thm_4_6,
    "remark_swm_implies_wm": _trial_remark,
}


def verify_theorem(name: str, shape, trials: int, seed: int = 0,
                   config: Config = DEFAULT) -> VerificationRecord:
    """Evaluate both sides of a named equivalence on a seeded ensemble.

    Each trial draws a unital CP channel, pairs it with its canonical
    invariant state, and evaluates the theorem's sides independently; any
    internal error counts as a failed trial rather than aborting the run.
    Trials run in order in the calling thread, and the first failed one is
    the record's counterexample. Valid names are listed in THEOREM_NAMES.
    """
    if name not in _TRIALS:
        raise UnknownTheorem(
            f"unknown theorem {name!r}; valid names: {', '.join(THEOREM_NAMES)}")
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    shape = shape if isinstance(shape, AlgebraShape) else AlgebraShape(shape)
    fn = _TRIALS[name]

    passes, counterexample = 0, None
    for i in range(trials):
        sys_i = None
        try:
            sys_i, kraus_count = _ensemble_system(shape, i, seed, config)
            ok, sides = fn(sys_i, config, seed + i)
            info = {"trial": i, "seed": seed + i, "kraus_count": kraus_count,
                    "sides": sides, "system": sys_i}
        except CstarMixingError as e:
            ok, info = False, {"trial": i, "seed": seed + i,
                               "error": f"{type(e).__name__}: {e}"}
            if sys_i is not None:
                info["system"] = sys_i
        if ok:
            passes += 1
        elif counterexample is None:
            counterexample = info
    return VerificationRecord(name, shape, trials, seed, passes,
                              trials - passes, counterexample)


# ---------------------------------------------------------------------------
# problem-1 probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProbeRecord:
    """Empirical search outcome; evidence, not a mathematical answer."""

    shape: AlgebraShape
    trials: int
    seed: int
    counterexample: dict | None
    verdicts: tuple

    @property
    def no_counterexample(self) -> bool:
        return self.counterexample is None


def _corner_unital_cp(shape: AlgebraShape, kraus_count: int,
                      seed: int, config: Config) -> MarkovOperator:
    """Unital CP channel whose invariant state hides in a corner.

    Kraus operators are block upper-triangular for a split N = n1 + n2 of
    the single matrix block, which makes the lower corner invariant under
    the dual: the channel then carries a non-faithful invariant state.
    """
    n = shape.blocks[0]
    n1 = n // 2
    n2 = n - n1
    rng = np.random.default_rng(seed)
    corner = random_unital_cp(AlgebraShape([n2]), kraus_count, seed=seed + 1,
                              config=config)
    ds = [a for a in corner.kraus]
    gs = [(rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))) / 2
          for _ in ds]
    s = sum(g @ d.conj().T for g, d in zip(gs, ds))
    cs = [g - s @ d for g, d in zip(gs, ds)]
    load = sum(c @ c.conj().T for c in cs)
    top = float(np.linalg.eigvalsh(load)[-1]) if n1 else 0.0
    eta = 1.0 if top <= 0.25 else 0.5 / np.sqrt(top)
    cs = [eta * c for c in cs]
    load = sum(c @ c.conj().T for c in cs)
    w, u = np.linalg.eigh(np.eye(n1) - load)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    qmat, _ = np.linalg.qr(rng.standard_normal((n1, n1))
                           + 1j * rng.standard_normal((n1, n1)))
    bs = [root @ qmat] + [np.zeros((n1, n1))] * (len(ds) - 1)
    kraus = []
    for b, c, d in zip(bs, cs, ds):
        a = np.zeros((n, n), dtype=complex)
        a[:n1, :n1] = b
        a[:n1, n1:] = c
        a[n1:, n1:] = d
        kraus.append(a)
    return from_kraus(shape, kraus, config)


def probe_problem1(shape, trials: int, seed: int = 0,
                   config: Config = DEFAULT) -> ProbeRecord:
    """Search for a weakly mixing, strictly ergodic, not strictly weak
    mixing system; candidates re-verify under 10x tighter tolerances.

    The ensemble mixes plain unital CP channels with corner-compressed ones
    (non-faithful invariant states) when the shape is a single block of
    size at least 2. Per-trial spectral verdicts are all recorded.
    """
    shape = shape if isinstance(shape, AlgebraShape) else AlgebraShape(shape)
    cornered = len(shape.blocks) == 1 and shape.blocks[0] >= 2
    verdicts = []
    counterexample = None
    for i in range(trials):
        kraus_count = (i % 4) + 1
        variant = "corner" if cornered and i % 3 == 2 else "plain"
        if variant == "corner":
            op = _corner_unital_cp(shape, kraus_count, seed + i, config)
        else:
            op = random_unital_cp(shape, kraus_count, seed=seed + i, config=config)
        phi = canonical_invariant_state(op, config)
        sys_i = DynamicalSystem(op, phi, config)

        se = _spectral_data(op, config).one_count == 1
        swm, _ = _swm_spectral(sys_i, config)
        wm, _ = _ergodic_spectral(tensor_system(sys_i, config), config)
        verdicts.append({"trial": i, "variant": variant,
                         "kraus_count": kraus_count,
                         "weakly_mixing": wm, "strictly_ergodic": se,
                         "strictly_weak_mixing": swm})

        if wm and se and not swm and counterexample is None:
            tight = config.scaled(0.1)
            try:
                report = classify(sys_i, tight, seed=seed + i)
            except CstarMixingError:
                continue  # does not survive tighter scrutiny
            v = report.verdicts
            if (v["weakly_mixing"] is True and v["strictly_ergodic"] is True
                    and v["strictly_weak_mixing"] is False):
                counterexample = {"trial": i, "seed": seed + i,
                                  "variant": variant, "system": sys_i,
                                  "verdicts": dict(v)}
    return ProbeRecord(shape, trials, seed, counterexample, tuple(verdicts))
