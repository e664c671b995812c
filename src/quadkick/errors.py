"""Exception types shared across the package."""


class QuadkickError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(QuadkickError, ValueError):
    """An argument or field is outside its valid domain."""


class InvariantViolation(QuadkickError):
    """A runtime operation produced a state that breaks its invariants.

    ``segment_index`` is set when the violation occurred while folding a
    pulse schedule; it is the zero-based index of the failing segment.
    """

    def __init__(self, message, segment_index=None):
        super().__init__(message)
        self.segment_index = segment_index


class ConfigError(QuadkickError):
    """A configuration file, schedule spec, or sweep spec failed to parse
    or validate.  ``line``, the one-based line number when known, prefixes
    the message."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
