"""Exception taxonomy shared across the package.

Every error raised on purpose derives from GandrError so callers (and the
CLI) can distinguish expected failures from bugs. A failure that no caller
handles apart from the others (an empty store, a k larger than the store,
a missing gold parse) is a plain GandrError; its message says which.
"""

import math


def shown(value, text=repr) -> str:
    """``text(value)`` for an error message. An int too long for the
    interpreter to convert to text (``sys.get_int_max_str_digits``) is
    shown by its magnitude instead, as ``about 1.00e+5000``."""
    try:
        return text(value)
    except ValueError:
        power = math.log10(abs(value))
        sign = "-" if value < 0 else ""
        return f"about {sign}{10 ** (power % 1):.2f}e+{int(power)}"


class GandrError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GandrError, ValueError):
    """Invalid configuration value or flag combination."""


class MalformedParse(GandrError, ValueError):
    """A bracketed parse string is not well-formed."""


class GenerationError(GandrError):
    """A generator endpoint failed: no answer for a prompt, a wrong number
    of outputs, or every retry used up. The pipeline's skip policy
    catches it."""


class GenerationTimeout(GenerationError):
    """A remote generation request timed out (after retries)."""


class RemoteError(GenerationError):
    """The remote generator answered with an error status."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class MalformedRow(GandrError, ValueError):
    """A row could not be turned into an exemplar, or its id is already in
    the store."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SeparatorCollision(MalformedRow):
    """A row contains one of the augmentation separator literals."""


class VersionMismatch(GandrError):
    """A persisted artifact carries an unknown format or version."""


class CorruptFile(GandrError):
    """A persisted artifact is truncated, fails to parse, or contradicts
    itself."""
