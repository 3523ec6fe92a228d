"""Mixing-hierarchy classification and theorem verification.

Decision policy: every verdict is grounded in an exact spectral criterion
(fixed-space dimension, peripheral spectrum, Cesàro and power projectors);
the definition-based estimators run alongside as cross-validation and a
conflict raises MethodDisagreement rather than being averaged away. Each of
the eight estimators (signed Cesàro means, correlation modulus, state mean,
mean of norms, norm of the Cesàro mean, power norm, weak power and dual
power) only reads its probes' orbits into a ``sequences.EstimatorRecord``:
each probe's values at N/2 and N, which are trailing-window maxima over
2**12 steps for the Cesàro estimators and single samples at 2**10 for the
power ones, with the checkpoint trace and the horizon. One function,
``sequences.decide``, decides every record: it vanishes when each probe's
value at N is below the threshold or at most ``Config.dyadic_factor``
(0.75) times its value at N/2. ``_decided`` writes each estimator's witness
from its record. The window maximum (rather than a single sample) keeps
oscillating-but-decaying traces from passing or failing on the phase they
happen to be caught at.
An estimator's m random probes (and its random states or functionals) are
one (m, D) array of vecs, drawn in one call of the generator through
``algebra``'s per-shape index map, with the numbers m separate draws would
give; phi(x_j) is taken by one dot per probe, as ``Functional.__call__``
takes it, because a batched matrix-vector product rounds differently.
Every T^k step comes from ``orbit``, in real arithmetic on the real
coordinates of the Hermitian probes. The mean of norms walks only as far as
the norms stay above a rounding floor, and reads only the ends of the
strides whose norms stay flat (``_orbit_norm_series``); the norm of the
Cesàro mean eigen-solves only the means that can be their window's maximum
(``_cesaro_norm_estimator``).

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
    AlgebraShape,
    Functional,
    _identity_vec,
    _random_functional_vecs,
    _random_hermitian_vecs,
    _random_state_vecs,
    _unit_scaled,
    block_products,
    functional_norm,
    hermitian_basis_norms,
    hermitian_operator_norms,
    pairing_coordinates,
    trace_norms,
    transpose_permutation,
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
    _orbit_pairings,
    _orbit_sums,
    _OrbitLayout,
    _read_samples,
    _sample_lengths,
)
from . import sequences
from .sequences import BoundedSequence, EstimatorRecord, check_kvn_equivalence
from .spectral import (
    _cesaro_factors,
    _spectral_data,
    cesaro_projector_spectral,
    power_limit,
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


def _decided(rec: EstimatorRecord, cfg: Config, *keys: str,
             tol: float | None = None) -> tuple[bool, dict]:
    """(verdict, witness) of an estimator's record: ``sequences.decide`` at
    ``tol`` (default ``cfg.estimator_abs``), and the record shown under
    ``keys`` in plain numbers. "half"/"at_half" and "final"/"at_full" show
    the values at N/2 and N, "per_pair" each probe's own verdict."""
    decide = functools.partial(sequences.decide, tol=cfg.estimator_abs
                               if tol is None else tol, ratio=cfg.dyadic_factor)

    def show(key: str):
        if key == "trace":
            return {"checkpoints": list(rec.checkpoints),
                    "values": rec.trace.tolist()}
        if key == "per_pair":
            return [decide(EstimatorRecord(v[:, None], rec.horizon))
                    for v in rec.values.T]
        if key in ("floor_step", "flat_strides"):
            return getattr(rec, key)
        return (rec.final_sq if key == "final_sq_means" else
                rec.values[-2 if key in ("half", "at_half") else -1]).tolist()

    return decide(rec), {key: show(key) for key in keys}


def _random_probe_elements(sys: DynamicalSystem, rng: np.random.Generator,
                           cfg: Config) -> np.ndarray:
    """(m, D): the vecs of m = ``cfg.estimator_pairs`` random Hermitian
    elements of unit operator norm, as rows. They are the numbers m calls of
    ``random_hermitian_element`` draw, from one draw, scaled by one batched
    norm."""
    hs = _random_hermitian_vecs(sys.shape, rng, cfg.estimator_pairs)
    return _unit_scaled(hs, hermitian_operator_norms(sys.shape, hs))


def _state_values(sys: DynamicalSystem, xs: np.ndarray) -> list[complex]:
    """phi(x_j) for the rows x_j of ``xs``, one dot per probe as
    ``Functional.__call__`` takes it: one matrix-vector product over the
    stack rounds differently."""
    row = sys.state.row()
    return [complex(row @ x) for x in xs]


def _correlation_probes(sys: DynamicalSystem, rng: np.random.Generator,
                        cfg: Config) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random pairs (x_j, y_j) as correlation arguments: rows phi(y_j .),
    constants phi(y_j) phi(x_j), columns vec(x_j)."""
    xs = _random_probe_elements(sys, rng, cfg)
    ys = _random_probe_elements(sys, rng, cfg)
    # the functionals phi(y_j .) have the blocks sigma y_j; their rows are
    # the transposed vecs
    products = block_products(sys.shape, sys.state.vec(), ys)
    rows = np.take(products, transpose_permutation(sys.shape), axis=1)
    consts = np.array([py * px for py, px in zip(_state_values(sys, ys),
                                                  _state_values(sys, xs))])
    return rows, consts, np.ascontiguousarray(xs.T)


def _signed_means(sys: DynamicalSystem, rows: np.ndarray, consts: np.ndarray,
                  x0: np.ndarray, cfg: Config) -> EstimatorRecord:
    """The record of |(1/k) sum_{j<k} rows[i] . T^j x_i - consts[i]| at the
    ``_orbit_sums`` lengths, read out by ``_read_samples``."""
    n = cfg.estimator_n
    w = min(cfg.dyadic_window, n // 2)
    ks, layout, sums = _orbit_sums(sys.operator, x0, n, w)
    k = ks[:, None]
    paired = np.einsum("iab,akib->ki", layout.rows_in(rows), sums)
    means = np.abs(paired - k * consts) / k
    pts, trace, ends = _read_samples(means, n, w)
    return EstimatorRecord(ends, n, pts, trace)


def _eq1_estimator(sys: DynamicalSystem, rng: np.random.Generator,
                   cfg: Config) -> tuple[bool, dict]:
    """Signed Cesàro means of phi(y T^k x) - phi(y) phi(x), random pairs."""
    return _decided(_signed_means(sys, *_correlation_probes(sys, rng, cfg), cfg),
                    cfg, "trace", "final")


def _eq2_estimator(sys: DynamicalSystem, rng: np.random.Generator,
                   cfg: Config) -> tuple[bool, dict]:
    """Vanishing of |phi(y T^k x) - phi(y) phi(x)| in the three equivalent
    senses of the bounded-sequence lemma, per random pair."""
    rows, consts, x0 = _correlation_probes(sys, rng, cfg)
    n = cfg.estimator_n
    series = _orbit_pairings(sys.operator, rows, x0, n) - consts
    lemma = [check_kvn_equivalence(BoundedSequence(np.abs(a)), n,
                                   cfg.estimator_abs, cfg.dyadic_factor)
             for a in series.T]
    trace = np.array([r.abs_trace for r in lemma]).T
    return _decided(EstimatorRecord(
        trace[-2:], n, lemma[0].checkpoints, trace,
        final_sq=np.array([r.sq_trace[-1] for r in lemma])), cfg, "per_pair",
        "final_sq_means")


def _state_mean_estimator(sys: DynamicalSystem, rng: np.random.Generator,
                          cfg: Config) -> tuple[bool, dict]:
    """Signed Cesàro means of psi(T^k x) - phi(x) for random states psi."""
    xs = _random_probe_elements(sys, rng, cfg)
    rows = _random_state_rows(sys.shape, rng, cfg.estimator_pairs)
    consts = np.array(_state_values(sys, xs))
    return _decided(_signed_means(sys, rows, consts, np.ascontiguousarray(xs.T),
                                  cfg), cfg, "trace")


def _random_state_rows(shape: AlgebraShape, rng: np.random.Generator,
                       m: int) -> np.ndarray:
    """(m, D): the dual-pairing rows of m ``random_state`` draws."""
    return np.take(_random_state_vecs(shape, rng, m),
                   transpose_permutation(shape), axis=1)


def _centered_columns(sys: DynamicalSystem, xs: np.ndarray) -> np.ndarray:
    """(D, m) columns vec(x_j - phi(x_j) 1) for the rows x_j of ``xs``; T
    acts on them exactly as on the deviation T^k x - phi(x) 1 because T is
    unital."""
    phis = np.array(_state_values(sys, xs))
    return np.ascontiguousarray(
        (xs - phis[:, None] * _identity_vec(sys.shape)).T)


# Orbit norms at or below this are rounding noise: about 50 ulp on the
# unit-norm probes, whose decayed orbits settle near 1e-15 in operator norm.
_NORM_FLOOR = 1e-14
# A stride whose end norms agree to this fraction of its first norm is
# filled from them. On most unitary draws the ends drift apart by 3e-14 to
# 8.4e-13 of their norm over a stride of 64, from rounding; at 2.5e-13 some
# of those would still be walked step by step. A few draws (about 2% on
# M_3, 8% on M_4) contract by up to 1.3e-11 per stride and are walked.
_FLAT_STRIDE = 1e-12
# Strides that ``_orbit_norm_series`` hands to ``_stride_norms`` at once,
# unless the orbit reaches the floor or the horizon first. A stride block of
# the unitary M_4 orbit is 40 KB in the layout.
_CHUNK = 8


def _orbit_norm_series(sys: DynamicalSystem, x0: np.ndarray,
                       n: int) -> tuple[np.ndarray, int | None, int]:
    """(w, floor_step, flat_strides) with w[k, j] = ||T^k applied to column
    j|| for k < n (operator norm); the columns are Hermitian, and T
    preserves Hermiticity.

    A unital positive map is an operator-norm contraction (Russo-Dye), so
    each probe's norms never increase along the orbit, and the two ends of
    a stride of ``_orbit`` bracket every norm inside it. The strides are
    evaluated by ``_stride_norms`` in chunks of ``_CHUNK``, so at most one
    chunk of the orbit is held at once; a chunk ends early at the floor or
    at the horizon.

    The orbit stops at the end of the first stride after which every
    column's Frobenius norm, an upper bound on its operator norm, is at most
    ``_NORM_FLOOR``: the Euclidean norm of its real coordinates in the
    layout, whose bases are orthonormal. floor_step is the number of steps
    walked by then, None if the orbit never gets there. By the same
    contraction no later norm exceeds the floor, and the rows past
    floor_step are filled with it: every Cesàro mean of w stays an upper
    bound of the true one, up to rounding. For an operator whose positivity
    is only declared, the fill and the floor rest on that claim, as the
    Jordan-part argument of ``invariant_states`` does.
    """
    m = x0.shape[1]
    s, layout, strides = _orbit(sys.operator, x0, n)
    norms = np.full((n, m), _NORM_FLOOR)
    floor_step, flat = None, 0
    chunk: list[tuple[int, np.ndarray]] = []
    for b, x in zip(range(0, n, s), strides):
        chunk.append((b, x))
        at_floor = np.linalg.norm(x[:, -m:], axis=(0, 2)).max() <= _NORM_FLOOR
        if at_floor or len(chunk) == _CHUNK or b + s == n:
            flat += _stride_norms(sys.shape, layout, chunk, norms)
            chunk.clear()
        if at_floor:
            floor_step = b + s
            break
    return norms, floor_step, flat


def _stride_norms(shape: AlgebraShape, layout: _OrbitLayout, chunk: list,
                  norms: np.ndarray) -> int:
    """Write the norms of a chunk of strides (b, block) into rows b .. b + s
    - 1 of ``norms``; return how many were filled.

    The ends of the chunk's strides move out of the layout and are
    evaluated together. Where every probe's ends agree to ``_FLAT_STRIDE``
    of its first norm, as on the isometric orbits of a *-automorphism, the
    stride is filled by linear interpolation between them, which is within
    that fraction of the true norms up to rounding; each other stride has
    all its rows moved out and evaluated. One np.linspace call fills every
    flat stride of the chunk.
    """
    m = norms.shape[1]
    s = chunk[0][1].shape[1] // m
    ends = np.r_[:m, (s - 1) * m:s * m]
    edges = layout.columns_out(np.concatenate([x[:, ends] for _, x in chunk],
                                              axis=1))
    first, last = hermitian_operator_norms(
        shape, edges.T.reshape(len(chunk), 2, m, -1)).transpose(1, 0, 2)
    flat = np.all(np.abs(first - last) <= _FLAT_STRIDE * first, axis=1)
    for (b, x), filled in zip(chunk, flat):
        if not filled:
            norms[b:b + s] = hermitian_operator_norms(
                shape, layout.columns_out(x).T.reshape(s, m, -1))
    at = np.array([b // s for b, _ in chunk])[flat]
    norms.reshape(-1, s, m)[at] = np.linspace(first[flat], last[flat], s,
                                              axis=1)
    return int(flat.sum())


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
    norms, floor_step, flat = _orbit_norm_series(sys, x0, n)
    running = np.cumsum(norms, axis=0) / np.arange(1, n + 1)[:, None]
    pts, trace, ends = _read_samples(running[_sample_lengths(n, w) - 1], n, w)
    return _decided(EstimatorRecord(ends, n, pts, trace, floor_step=floor_step,
                                    flat_strides=flat),
                    cfg, "trace", "final", "floor_step", "flat_strides")


def _norm_trace(sys: DynamicalSystem, config: Config, seed: int) -> tuple[bool, dict]:
    """The ``_shared`` Cesàro-of-norms trace: ``_mean_norm_estimator`` at
    ``seed``, route C of strict weak mixing and phi-ergodic condition (i)."""
    return _shared(sys, "cesaro_of_norms", lambda: _mean_norm_estimator(
        sys, np.random.default_rng(seed), config))


# Relative slack on a window mean's norm bound before it rules the mean out:
# far above the rounding of the bound and of eigvalsh, far below its gap.
_BOUND_SLACK = 1e-9
# Bytes of complex window means moved out of the layout at once: 32 means of
# a unitary (4) square, where a read of all 320 is copied four times over
# on its way to eigvalsh.
_READOUT_BYTES = 1 << 17


def _cesaro_norm_estimator(sys: DynamicalSystem, rng: np.random.Generator,
                           cfg: Config) -> tuple[bool, dict]:
    """||(1/k) sum T^j x - phi(x) 1|| sampled on trailing windows at N/2, N.

    Only each window's maximum is read, so not every mean is eigen-solved.
    The first mean of a window is its anchor i, with nu_i = ||S_i / k_i||
    taken exactly. For a later mean j, S_j / k_j = (k_i / k_j) S_i / k_i +
    (S_j - S_i) / k_j, and the operator norm is at most the Frobenius norm,
    so ||S_j / k_j|| <= u_j = (k_i / k_j) nu_i + ||S_j - S_i||_F / k_j. The
    Frobenius norm is the Euclidean norm of the layout's real coordinates,
    which are over orthonormal bases. Mean j is moved out and eigen-solved
    only when u_j (1 + ``_BOUND_SLACK``) + ``_NORM_FLOOR`` >= nu_i; a mean
    ruled out would have a norm below nu_i, so each window maximum is the
    float a read of all its means gives. Where nu_i is 0 nothing is ruled
    out. Means move out of the layout ``_READOUT_BYTES`` at a time.
    """
    xs = _random_probe_elements(sys, rng, cfg)
    x0 = _centered_columns(sys, xs)
    n = cfg.estimator_n
    w = min(cfg.dyadic_window, n // 2)
    ks, layout, sums = _orbit_sums(sys.operator, x0, n, w)
    da, _, m, db = sums.shape
    # the 2w window means; column c of flat is mean c // m of probe c % m
    windows = sums[:, -2 * w:].reshape(da, 2, w, m, db)
    flat = windows.reshape(da, 2 * w * m, db)
    lengths = ks[-2 * w:]

    step = max(1, _READOUT_BYTES // (16 * sys.shape.dim))
    norms = np.zeros(2 * w * m)         # a mean ruled out stays at 0

    def read(cols: np.ndarray) -> None:
        for start in range(0, cols.size, step):
            part = cols[start:start + step]
            vecs = layout.columns_out(np.take(flat, part, axis=1))
            norms[part] = hermitian_operator_norms(
                sys.shape, (vecs / lengths[part // m]).T)

    anchors = np.r_[:m, w * m:(w + 1) * m]
    read(anchors)
    nu = norms[anchors].reshape(2, 1, m)
    k = lengths.reshape(2, w, 1)
    frobenius = np.linalg.norm(windows - windows[:, :, :1], axis=(0, 4))
    bound = k[:, :1] / k * nu + frobenius / k
    can_be_max = bound * (1 + _BOUND_SLACK) + _NORM_FLOOR >= nu
    can_be_max[:, 0] = False            # the anchors are already read
    read(np.flatnonzero(can_be_max))
    return _decided(EstimatorRecord(norms.reshape(2, w, m).max(axis=1), n),
                    cfg, "final", "half")


def _power_estimators(sys: DynamicalSystem, rng: np.random.Generator,
                      cfg: Config) -> tuple[tuple[bool, dict], tuple[bool, dict]]:
    """(verdict, witness) at the power horizon n and at n/2, from one
    squaring ladder of T, of ||T^n x - phi(x) 1||, then of psi(T^n x) ->
    phi(x) for random states psi (drawn in that order)."""
    layout = _OrbitLayout.of(sys.operator)
    power = _dyadic_powers(layout)
    i = cfg.exact_power_n.bit_length() - 1
    x_norm, x_weak = (layout.columns_in(_centered_columns(
        sys, _random_probe_elements(sys, rng, cfg))) for _ in range(2))
    rows = layout.rows_in(_random_state_rows(sys.shape, rng,
                                             cfg.estimator_pairs))
    norms = np.stack([hermitian_operator_norms(
        sys.shape, layout.columns_out(power(k).step(x_norm)).T)
        for k in (i - 1, i)])
    weak = np.stack([np.abs(np.einsum("jab,ajb->j", rows, power(k).step(x_weak)))
                     for k in (i - 1, i)])
    return (_decided(EstimatorRecord(norms, cfg.exact_power_n), cfg, "at_half",
                     "at_full"),
            _decided(EstimatorRecord(weak, cfg.exact_power_n), cfg, "at_full"))


def _dual_power_estimator(sys: DynamicalSystem, rng: np.random.Generator,
                          cfg: Config) -> tuple[bool, dict]:
    """||psi . T^n - psi(1) phi||_1 at the power horizon, random functionals,
    on pairing rows: psi . T^n has the row psi.row() @ M^n, and a row holds
    its functional's blocks transposed, so its trace norm is the same."""
    one = _identity_vec(sys.shape)
    # the random functionals are not Hermitian: M's powers stay complex,
    # squared in place of the real ladder
    m_half = sys.operator.matrix
    for _ in range(cfg.exact_power_n.bit_length() - 2):
        m_half = m_half @ m_half
    m_full = m_half @ m_half
    psis = _random_functional_vecs(sys.shape, rng, cfg.estimator_pairs)
    rows = np.take(psis, transpose_permutation(sys.shape), axis=1)
    # psi_j(1), one dot per functional as Functional.__call__ takes it
    units = [complex(r @ one) for r in rows]
    target = np.outer(units, sys.state.row())
    values = np.stack([trace_norms(sys.shape, rows @ m - target)
                       for m in (m_half, m_full)])
    return _decided(EstimatorRecord(values, cfg.exact_power_n), cfg, "at_full",
                    tol=cfg.exact_estimator_tol)


# ---------------------------------------------------------------------------
# spectral criteria
# ---------------------------------------------------------------------------

def _rank_one_matrix(sys: DynamicalSystem) -> np.ndarray:
    """Matrix of x -> phi(x) 1, the limit every exact system's powers reach."""
    return np.outer(_identity_vec(sys.shape), sys.state.row())


# residual entries _ergodic_spectral forms at once: a tensor square's
# residual matrix has D^4 entries (16.8M at M_8); up to D^2 = 256 it is one
# block
_RESIDUAL_BLOCK = 1 << 16


def _ergodic_spectral(sys: DynamicalSystem, cfg: Config) -> tuple[bool, dict]:
    """phi(h_p C(h_r)) against phi(h_p) phi(h_r) over the Hermitian basis h,
    for the Cesàro projector C = X Y of rank k. The Gram is
    (h^T Q X)(Y h), where row j of h^T Q X is phi(h_p x_j), the pairing of
    h_p with the functional whose blocks are x_j sigma; the rank-one term
    joins it as a (k+1)-th term, so one (D, k+1) by (k+1, D) product gives
    the residual matrix, formed ``_RESIDUAL_BLOCK`` entries at a time."""
    x, y = _cesaro_factors(sys.operator, cfg)
    summ = spectrum(sys.operator, cfg)
    shape = sys.shape
    norms = hermitian_basis_norms(shape)
    rows = np.take(block_products(shape, x.T, sys.state.vec()),
                   transpose_permutation(shape), axis=1)
    g = pairing_coordinates(shape, sys.state.row())[None, :]
    left = np.concatenate([pairing_coordinates(shape, rows, axis=1), g])
    right = np.concatenate([pairing_coordinates(shape, y, axis=1), -g])
    lhs, rhs = (left * norms).T, right * norms
    d = len(lhs)
    step = max(1, _RESIDUAL_BLOCK // d)     # residual rows per block
    starts = range(0, d, step)

    def block(start: int) -> np.ndarray:
        return np.abs(lhs[start:start + step] @ rhs)

    tops = []
    for start in starts:
        resid = block(start)
        tops.append(resid.max())
    # the first pair within rounding of the largest residual: symmetric
    # systems tie many pairs (1,728 on example 2's tensor square), and
    # rounding alone should not choose among them
    top = float(max(tops))
    cut = top * (1.0 - 1e-9)
    start = starts[next(b for b, t in enumerate(tops) if t >= cut)]
    if start != starts[-1]:             # not the block in hand
        resid = block(start)
    p, r = divmod(start * d + int(np.argmax(resid >= cut)), d)
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
    the rank identity rank(T - id) = D - 1 from the SVD of M - I, read as
    ``fixed_space_dim`` == 1, and invariant_states returning exactly the
    system state. A unique invariant state different from phi raises
    InvariantStateMismatch.
    """
    data = _spectral_data(sys.operator, config)
    spectral = data.one_count == 1
    rng = np.random.default_rng(seed)
    estim, trace = _cesaro_norm_estimator(sys, rng, config)
    rank_crit = data.summary.fixed_space_dim == 1
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
    names = ("cesaro_of_norms", "power_norm", "weak_power")
    verdicts, witnesses = zip(_norm_trace(sys, config, seed), *_power_estimators(
        sys, np.random.default_rng(seed + 2), config))
    observed, traces = dict(zip(names, verdicts)), dict(zip(names, witnesses))
    i, ii, iv = verdicts
    return observed, traces, i == ii and (iv or not ii)


def check_peripheral_obstruction(sys: DynamicalSystem,
                                 config: Config = DEFAULT) -> ObstructionRecord:
    """Search the dual spectrum for an eigenpair h . T = alpha h, |alpha| = 1,
    alpha != 1, the explicit witness that rules out strict weak mixing. The
    eigenvectors of M^T are the eigenfunctionals' pairing rows; this solve
    stays apart from the Schur form as prop_4_4's independent side."""
    w, v = np.linalg.eig(sys.operator.matrix.T)
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
    h = Functional.from_row(sys.shape, v[:, i])
    h = h * (1.0 / functional_norm(h))
    resid = functional_norm(dual(sys.operator)(h) - complex(w[i]) * h)
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


def _check_seed(seed: int) -> None:
    """ValidationError for a negative seed, before any generator is seeded."""
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")


def _check_ensemble(trials: int, seed: int) -> None:
    """ValidationError for an empty ensemble or a negative seed."""
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    _check_seed(seed)


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
    _check_seed(seed)
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
    _check_ensemble(trials, seed)
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
    _check_ensemble(trials, seed)
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
