"""Exception types shared across the package."""


class HalfextError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HalfextError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DivergenceError(HalfextError, ArithmeticError):
    """A quadrature or iteration target is divergent / non-integrable."""


class SolverDivergence(HalfextError, RuntimeError):
    """Fixed-point iteration diverged.  Carries the iteration trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace
