"""Exception types, and one rule per argument kind: tuning value, probability,
index, count, seed, parameter dimension, sequence of numbers."""

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


def check_count(value, what: str) -> int:
    """``value``, named ``what`` in the message, as an int, if it is an index
    >= 1."""
    if not is_index(value) or value < 1:
        raise DomainError(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)


def check_seed(seed, what: str) -> None:
    """Refuse ``seed``, named ``what`` in the message, unless it is an index
    below 2^64, the range numpy seeds from."""
    if not is_index(seed, 2**64):
        raise DomainError(f"{what} must be an integer in [0, 2^64), got {seed!r}")


def _check_dimension(what: str, size: int, dim: int, of: str = "parameter") -> None:
    """Refuse ``what`` of dimension ``size`` where the ``of`` dimension is
    ``dim``."""
    if size != dim:
        raise DomainError(f"{what} does not match {of} dimension: {size} against {dim}")


def _check_numbers(value, what: str) -> None:
    """Refuse ``value``, named ``what`` in the message, where it is a string,
    which would be read character by character as a sequence of numbers."""
    if isinstance(value, (str, bytes)):
        raise DomainError(f"{what} must be a sequence of numbers, got {value!r}")


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
