"""Exception hierarchy shared across the package."""


class DotphaseError(Exception):
    """Base class for all package errors."""


class ValidationError(DotphaseError, ValueError):
    """Bad user input or parameters outside an operation's domain."""


class CapacityError(ValidationError):
    """Register size outside the supported range."""


class DimensionError(ValidationError):
    """Mismatched or invalid operator/state dimensions."""


class DomainError(ValidationError):
    """Numeric argument outside the mathematical domain of a formula."""


class BoundUndefinedError(DomainError):
    """Success-probability bound evaluated at its singular point."""


class NumericalInvariantError(DotphaseError, RuntimeError):
    """A numerical invariant (norm, unitarity) was violated internally."""
