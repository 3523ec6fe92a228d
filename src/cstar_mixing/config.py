"""Tolerance and estimator configuration.

One frozen dataclass holds every numeric knob in the package so that reports
can embed the exact configuration they were produced under. Defaults are the
contract values; anything can be overridden per call via ``replace``.
Horizons and counts the estimators cannot run with, float fields that are
negative, infinite or NaN, and a ``dyadic_factor`` outside (0, 1] raise
ValidationError. Seeds are not configuration: the estimators and ensembles
take theirs from the ``seed=`` argument of ``classify``, ``verify_theorem``
and ``probe_problem1`` (the command line's ``--seed``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class Config:
    # construction gates
    tol_hermitian: float = 1e-10        # blockwise Hermiticity of functionals / T(h)
    tol_unital: float = 1e-10           # |T(1) - 1|
    tol_stochastic_row: float = 1e-12   # row sums of stochastic matrices
    tol_stochastic_entry: float = 1e-14 # entry negativity allowance

    # positivity checks
    tol_choi: float = 1e-9              # min Choi eigenvalue floor for CP
    tol_positive_sample: float = 1e-8   # output-eigenvalue floor in sampling

    # spectral analysis
    tol_cluster: float = 1e-7           # eigenvalue clustering radius
    tol_peripheral: float = 1e-9        # |lambda| >= 1 - tol counts as peripheral
    tol_rank: float = 1e-9              # relative SVD cutoff for ranks
    tol_spectral: float = 1e-8          # residual bound for spectral verdicts
    tol_invariant_state: float = 1e-8   # fixed-space cut of (dual - I); state invariance

    # definition-based estimators
    estimator_n: int = 4096             # Cesàro horizon, 2**12
    estimator_pairs: int = 5            # random pairs / elements per estimator
    estimator_abs: float = 1e-3         # absolute smallness threshold (signed mean)
    dyadic_factor: float = 0.75         # decrease ratio between N/2 and N
    dyadic_window: int = 32             # trailing-max window at each checkpoint
    exact_power_n: int = 1024           # dual-power horizon, 2**10
    exact_estimator_tol: float = 1e-6   # trace-norm residual bound at that horizon

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(f.default, float) and not 0.0 <= v < math.inf:
                raise ValidationError(
                    f"{f.name} must be finite and nonnegative, got {v!r}")
        if not 0.0 < self.dyadic_factor <= 1.0:
            raise ValidationError(
                f"dyadic_factor must lie in (0, 1], got {self.dyadic_factor!r}")
        for name, low in (("estimator_n", 2), ("estimator_pairs", 1),
                          ("dyadic_window", 1)):
            if getattr(self, name) < low:
                raise ValidationError(
                    f"{name} must be at least {low}, got {getattr(self, name)}")
        n = self.exact_power_n
        if n < 2 or n & (n - 1):
            raise ValidationError(
                "exact_power_n must be a power of two of at least 2 "
                f"(the power horizon), got {n}")

    def replace(self, **overrides: object) -> "Config":
        """Copy with the given fields replaced; unknown names raise TypeError."""
        return dataclasses.replace(self, **overrides)

    def scaled(self, factor: float) -> "Config":
        """Copy with every tolerance (not horizons or counts) multiplied.

        Used to re-verify candidate counterexamples under tighter settings.
        """
        tight = {
            f.name: getattr(self, f.name) * factor
            for f in dataclasses.fields(self)
            if f.name.startswith("tol_") or f.name in
            ("estimator_abs", "exact_estimator_tol")
        }
        return dataclasses.replace(self, **tight)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT = Config()

# the type of every field, as read from its default: int or float
FIELD_TYPES = {f.name: type(getattr(DEFAULT, f.name))
               for f in dataclasses.fields(Config)}
