"""Exception types shared across the package."""


class EvalpError(Exception):
    """Base class for all package errors."""


class ShapeMismatchError(EvalpError):
    """Operand shapes do not conform; the message names both shapes."""


class DomainError(EvalpError):
    """Input lies outside an operation's valid domain (e.g. sqrt of x < 0)."""


class NonFiniteError(EvalpError):
    """A value that must be finite is NaN or infinite."""


class TrainingDivergedError(EvalpError):
    """Training aborted on divergence.

    ``last_good`` carries the most recent finite parameter snapshot, when
    one exists, so callers can persist it before bailing out.
    """

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good


class CheckpointError(EvalpError):
    """Checkpoint file is missing, malformed, or incompatible."""


class ConfigError(EvalpError):
    """Configuration is missing, malformed, or contains unknown keys."""


class DataError(EvalpError):
    """A data file is missing, unreadable, or malformed."""


class IdxFormatError(DataError):
    """Base class for IDX file parsing failures."""


class IdxBadMagicError(IdxFormatError):
    """IDX magic number is not one of the supported values."""


class IdxTruncatedError(IdxFormatError):
    """IDX payload is shorter than its header declares."""


class IdxDimensionError(IdxFormatError):
    """IDX dimension sizes are invalid or overflow the element budget."""
