"""Exception types shared across the toolkit.

Everything raised on purpose derives from ItmError so callers (and the
format fuzzer) can distinguish structured failures from genuine bugs.
"""


class ItmError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(ItmError, ValueError):
    """Unsupported container or an invalid pixel payload."""


class ParseError(FormatError):
    """Malformed file contents.

    ``offset`` is the byte position at which parsing gave up, when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class InputError(ItmError):
    """An input file or directory cannot be read."""


class DomainError(ItmError, ValueError):
    """Scalar or field argument outside its documented domain."""


class ShapeError(ItmError, ValueError):
    """Image dimensions are missing, mismatched, or too small."""


class RangeError(ItmError, ValueError):
    """Exposure-range estimation failed on a degenerate image."""


class ConfigError(ItmError, ValueError):
    """Bad configuration file or unknown key."""
