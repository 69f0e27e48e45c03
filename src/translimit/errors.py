"""Exception types shared across the package."""

__all__ = [
    "TranslimitError",
    "ValidationError",
    "SolvabilityError",
    "CertificationError",
    "ConvergenceError",
]


class TranslimitError(Exception):
    """Base class for all package errors."""


class ValidationError(TranslimitError, ValueError):
    """Invalid argument, configuration value, or input file."""


class SolvabilityError(TranslimitError, ValueError):
    """Right-hand side violates the zero-mean solvability condition."""


class CertificationError(TranslimitError, RuntimeError):
    """A scattering operator or tensor failed its certification checks."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConvergenceError(TranslimitError, RuntimeError):
    """An iterative solve did not reach its tolerance."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log
