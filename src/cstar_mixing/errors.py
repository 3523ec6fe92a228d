"""Exception taxonomy.

Three failure families matter to callers (and fix the CLI exit codes):
input/validation problems, cross-method disagreements, and numerical
breakdowns. Every concrete error derives from exactly one of them.
"""


class CstarMixingError(Exception):
    """Base class for all errors raised by this package."""


class ValidationFailure(CstarMixingError):
    """Bad input: malformed data or violated construction preconditions."""


class DisagreementFailure(CstarMixingError):
    """Independent computation routes reached incompatible verdicts."""


class NumericalFailure(CstarMixingError):
    """A numerical procedure broke down (not a property of the input model)."""


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class ShapeMismatch(ValidationFailure):
    """Operands live on different algebra shapes."""


class NotHermitian(ValidationFailure):
    """A functional expected to be Hermitian has a non-Hermitian block."""


class NotUnital(ValidationFailure):
    """T(1) differs from 1 beyond tolerance."""


class NotHermitianPreserving(ValidationFailure):
    """The superoperator does not map Hermitian elements to Hermitian ones."""


class NotStochastic(ValidationFailure):
    """Matrix is not row-stochastic within tolerance."""


class InvalidStochastic(NotStochastic):
    """Stochastic-matrix parameter violates a model's stricter requirements."""


class NotCompletelyPositive(ValidationFailure):
    """A verified_cp claim failed the Choi test."""


class NotPositive(ValidationFailure):
    """A sampled_positive claim failed its sampled positivity check."""


class RequiresCP(ValidationFailure):
    """Operation needs a verified completely positive operator."""


class NotCoprime(ValidationFailure):
    """Rotation step shares a factor with the algebra dimension."""


class NotInvariant(ValidationFailure):
    """A state fails the required invariance under the given operator."""


class ParseError(ValidationFailure):
    """Input file is not syntactically valid."""


class ValidationError(ValidationFailure):
    """Input file parsed but is semantically invalid."""


class UnknownTheorem(ValidationFailure):
    """Verifier name is not one of the supported identifiers."""


# ---------------------------------------------------------------------------
# disagreement
# ---------------------------------------------------------------------------

class MethodDisagreement(DisagreementFailure):
    """Spectral and estimator routes disagree on a verdict.

    Carries the partially filled report (``report`` attribute) when raised
    by the classifier, so callers can persist the evidence.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InvariantStateMismatch(DisagreementFailure):
    """The unique invariant state differs from the system's declared state."""


class ImplicationViolation(DisagreementFailure):
    """Observed condition verdicts violate a proven implication."""


class EquivalenceViolation(DisagreementFailure):
    """The three bounded-sequence criteria disagree numerically.

    Carries the three traces (``traces`` attribute) for diagnosis.
    """

    def __init__(self, message, traces=None):
        super().__init__(message)
        self.traces = traces


class HierarchyViolation(DisagreementFailure):
    """A finished report violates the mixing-hierarchy implications."""


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

class DefectivePeripheral(NumericalFailure):
    """A peripheral eigenvalue cluster has a nontrivial Jordan block.

    Positive unital maps are power-bounded, so this proves invalid input
    or numerical breakdown; it is never a classification outcome.
    """


class EigensolverFailure(NumericalFailure):
    """LAPACK failed to converge on a spectral decomposition."""


class NumericalDegeneracy(NumericalFailure):
    """A rank/eigenspace cut is too ill-conditioned to trust."""


class SingularNormalization(NumericalFailure):
    """Random channel normalization hit a (near-)singular Gram matrix."""
