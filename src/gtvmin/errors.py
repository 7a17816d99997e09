"""Exception types shared across the package."""

__all__ = ["GTVMinError", "SingularSystemError", "DivergenceError"]


class GTVMinError(Exception):
    """Base class for solver and analysis failures."""


class SingularSystemError(GTVMinError):
    """Raised when the exact solver's linear system is singular, or when
    its solution fails the residual gate."""


class DivergenceError(GTVMinError):
    """Raised when an iterative solve produces a non-finite objective."""
