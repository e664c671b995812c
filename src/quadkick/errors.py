"""Exception types shared across the package."""


class QuadkickError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(QuadkickError, ValueError):
    """An argument, field, config file or CLI spec is invalid or fails to parse."""


class InvariantViolation(QuadkickError):
    """A runtime operation produced a state that breaks its invariants.

    ``segment_index`` is set when the violation occurred while folding a
    pulse schedule; it is the zero-based index of the failing segment.
    """

    def __init__(self, message, segment_index=None):
        super().__init__(message)
        self.segment_index = segment_index

