"""Exception hierarchy shared across the package."""


class MirrorflowError(Exception):
    """Base class for all package errors."""


class ParameterError(MirrorflowError, ValueError):
    """A scalar or structural parameter is out of its admissible range."""


class DomainError(MirrorflowError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class SizeError(MirrorflowError, ValueError):
    """Array dimensions are inconsistent or would overflow."""


class NumericError(MirrorflowError, ArithmeticError):
    """A computation produced NaN/Inf or exceeded representable range."""


class UnsupportedOperationError(MirrorflowError, TypeError):
    """The operation is undefined for this object (e.g. Hessian of a projection map)."""


class IntegrationError(MirrorflowError, RuntimeError):
    """Integration failed; carries the failure time and any partial trajectory."""

    def __init__(self, message, t=None, partial=None):
        super().__init__(message)
        self.t = t
        self.partial = partial


class OracleError(MirrorflowError, RuntimeError):
    """Reference solver did not reach the requested tolerance."""


class UsageError(MirrorflowError, ValueError):
    """Invalid command-line or configuration input."""
