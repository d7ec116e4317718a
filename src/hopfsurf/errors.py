"""Exception types shared across the package.

All of these derive from ValueError so that callers who do not care about
the fine distinctions can catch a single class.  The argument checks shared
by several modules raise InvalidInputError with one message each.
"""

import cmath
import math


class InvalidInputError(ValueError):
    """Raised when an argument is outside the documented domain of an operation."""


class ConsistencyError(ValueError):
    """Raised when user-declared data contradicts the computed values."""


class CaseError(ValueError):
    """Raised when an operation is called outside the parameter case it supports."""


class PreconditionError(ValueError):
    """Raised when a structural precondition of an algorithm fails."""


class EvaluationError(ValueError):
    """Raised when a quantity cannot be evaluated at the requested point."""


def _require_samples(n: int, name: str = "n_samples") -> None:
    if n < 1:
        raise InvalidInputError(f"{name} must be >= 1, got {n}")


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidInputError(f"tol must be finite and >= 0, got {tol}")


def _require_finite(label: str, x: complex) -> None:
    if not cmath.isfinite(x):
        raise InvalidInputError(f"{label} = {x} is not finite")
