"""Exception types, and one rule per argument kind: tuning value, probability, index."""

import numpy as np

__all__ = ["DecompositionError", "DegenerateFitError", "DomainError", "NonFiniteIntegrandError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def check_alpha(alpha) -> float:
    """``alpha`` as a float, if it is finite and >= 0 (0 is the MLE)."""
    a = float(alpha)
    if not 0.0 <= a < float("inf"):
        raise DomainError(f"alpha must be finite and nonnegative, got {alpha}")
    return a


def check_probability(p, what: str) -> None:
    """Refuse ``p``, named ``what`` in the message, outside (0, 1); NaN too."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"{what} must lie in (0, 1), got {p}")


def is_index(value, size=None) -> bool:
    """Whether ``value`` is an int, not a bool, in 0..size-1 if ``size`` is given."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return integer and (size is None or 0 <= value < size)


class DecompositionError(ArithmeticError):
    """A matrix factorization failed (non-SPD input, singular system)."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class NonFiniteIntegrandError(ArithmeticError):
    """The integrand returned a non-finite value at a quadrature node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class DegenerateFitError(RuntimeError):
    """The fitted scale collapsed toward zero (data interpolation)."""
