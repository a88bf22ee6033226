"""Exception hierarchy shared across the package."""
import math


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


def finite_result(what: str, formula) -> float:
    """``formula()``, or DomainError when its float arithmetic overflows,
    divides by zero or gives inf or NaN."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"{what} has no finite value: {exc}") from None
    if not math.isfinite(value):
        raise DomainError(f"{what} has no finite value, got {value}")
    return value


class NumericalInvariantError(DotphaseError, RuntimeError):
    """A numerical invariant (norm, unitarity) was violated internally."""
