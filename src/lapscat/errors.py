"""Exception hierarchy for lapscat.

Two broad families matter to callers: validation problems (bad input,
bad configuration, geometric preconditions) and numerical failures
(singular systems, quadrature that cannot reach its tolerance).  The CLI
maps these onto distinct exit codes.
"""

from __future__ import annotations


class LapscatError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(LapscatError):
    """Input or configuration violates a documented precondition."""


class NumericalError(LapscatError):
    """A numerical procedure failed or refused to return garbage."""


# --- validation family -------------------------------------------------

class DomainError(ValidationError):
    """Argument outside the mathematical domain of an operation."""


class UnsupportedOrderError(ValidationError):
    """Bessel order outside the supported set {0, 1}."""


class GeometryError(ValidationError):
    """Degenerate or inconsistent geometric input."""


class ScreenError(GeometryError):
    """Screen interval empty, full, or carrying too few nodes."""


class ShapeParameterError(GeometryError, TypeError):
    """Shape parameter given as a string or a bool; a TypeError, as from float([1])."""


class SpectralParameterError(ValidationError):
    """Spectral parameter violates lambda > lambda_bound >= 0."""


class CoefficientError(ValidationError):
    """Boundary coefficient (alpha / theta) fails its sign/boundedness rules."""


class ScenarioError(ValidationError):
    """Scenario file malformed or internally inconsistent."""


class ConstraintError(ValidationError):
    """Test vector orthogonal to the retained eigenspace (`inf_indicator`)."""


class SegmentationError(ValidationError):
    """Indicator field degenerate; no threshold can be derived."""


# --- numerical family --------------------------------------------------

class SingularityError(NumericalError):
    """Kernel evaluated at (numerically) coincident points."""


class AssemblyError(NumericalError):
    """Operator assembly impossible at the requested discretization."""

class InversionError(NumericalError):
    """Matrix inversion aborted (singular or condition number over cap)."""


class TruncationError(NumericalError):
    """Domain truncation error dominates the requested tolerance."""


class QuadratureError(NumericalError):
    """Quadrature failed to converge or its tail exceeds budget."""


class DegenerateOperatorError(NumericalError):
    """Operator has no usable spectrum (empty truncated eigensystem)."""
