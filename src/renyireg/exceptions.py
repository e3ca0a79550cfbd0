"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


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
