"""Exception types shared across the package.

All of these derive from ValueError so that callers who do not care about
the fine distinctions can catch a single class.  The argument checks shared
by several modules raise InvalidInputError with one message each.
"""

import cmath
import math
import numbers


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


def _is_int(x) -> bool:
    """An integer (Python or numpy), not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _require_samples(n: int, name: str = "n_samples", least: int = 1) -> None:
    """The one check of a count argument: an integer >= least."""
    if not _is_int(n):
        raise InvalidInputError(f"{name} must be an integer, "
                                f"got {type(n).__name__}")
    if n < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {n}")


def _require_seed(seed) -> None:
    """The one check of a seed: an integer >= 0."""
    if not _is_int(seed) or seed < 0:
        raise InvalidInputError(f"seed must be an integer >= 0, got {seed}")


def _require_nonneg(x: float, name: str = "tol") -> None:
    if not (math.isfinite(x) and x >= 0.0):
        raise InvalidInputError(f"{name} must be finite and >= 0, got {x}")


def _require_finite(label: str, x: complex) -> None:
    if not cmath.isfinite(x):
        raise InvalidInputError(f"{label} = {x} is not finite")
