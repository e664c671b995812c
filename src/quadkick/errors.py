"""Exception types shared across the package."""


class QuadkickError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(QuadkickError, ValueError):
    """An argument, field, config file or CLI spec is invalid or fails to parse."""


class InvariantViolation(QuadkickError):
    """A runtime operation produced a state that breaks its invariants."""

