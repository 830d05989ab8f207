"""Exception types shared across the package."""


class SpinBathError(Exception):
    """Base class for all package errors."""


class DomainError(SpinBathError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class UsageError(SpinBathError, TypeError):
    """Structurally invalid input, such as a grid with the wrong layout."""


class EvaluationError(SpinBathError):
    """A sampled function returned a non-finite value."""


class InfraredError(SpinBathError):
    """Infrared behaviour too singular for the requested integral."""

    def __init__(self, message, exponent=None):
        super().__init__(message)
        self.exponent = exponent


class AccuracyError(SpinBathError):
    """Quadrature failed to reach the requested accuracy."""

    def __init__(self, message, partial=None, err=None):
        super().__init__(message)
        self.partial = partial
        self.err = err


class DivergentIntegralError(SpinBathError):
    """The requested integral does not converge."""


class ConfigurationError(SpinBathError):
    """Invalid or incomplete configuration."""


class TruncationError(SpinBathError):
    """Fock truncation too small for the requested operation."""


class ScalingError(SpinBathError):
    """Parameters outside the representable floating-point range."""


class PreconditionError(SpinBathError):
    """Operation precondition not met."""
