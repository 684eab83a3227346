"""Exception types shared across the package, and the integer check."""

import operator


class FctkError(Exception):
    """Base class for all computational failures raised by fctk."""


class DomainError(FctkError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceFailure(FctkError):
    """An iterative root finder failed to reach its residual target."""


class QuadratureFailure(FctkError):
    """Adaptive quadrature could not certify the requested accuracy."""


class BranchAmbiguity(FctkError):
    """No Stieltjes root clears D's margin or the Herglotz test: z is at a branch point."""


class NotSquareFree(FctkError):
    """Polynomial shares a factor with its derivative (multiple root)."""


class IsolationFailure(FctkError):
    """Root isolation found a number of positive real roots != degree."""


class GuardExceeded(FctkError):
    """A quadrature grid has fewer than 8 points per axis."""


class DecompositionFailure(FctkError):
    """A numerical matrix decomposition failed; the seed is recorded."""


class AsymmetryWarning(UserWarning):
    """Imaginary residual of a symmetric quadrature exceeded its bound."""


def as_index(value, what: str) -> int:
    """value as an int (operator.index); DomainError for a float or any non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
