"""Exception taxonomy shared across the package.

Every error raised on purpose derives from GandrError so callers (and the
CLI) can distinguish expected failures from bugs.
"""


class GandrError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GandrError, ValueError):
    """Invalid configuration value or flag combination."""


class MalformedParse(GandrError, ValueError):
    """A bracketed parse string is not well-formed."""


class EmptyCorpus(GandrError, ValueError):
    """An index or store was built from zero documents."""


class DuplicateId(GandrError, ValueError):
    """Two exemplars share the same id."""


class MissingPrediction(GandrError, ValueError):
    """Output-weighted scoring requested without a query prediction."""


class StoreTooSmall(GandrError, ValueError):
    """Retrieval asked for more exemplars than are left after exclusions."""


class QueryExceedsBudget(GandrError, ValueError):
    """The bare query is already longer than the token budget."""


class MissingGold(GandrError, ValueError):
    """A metric that needs gold parses was given records without them."""


class GenerationError(GandrError):
    """Base class for generator endpoint failures."""


class GenerationTimeout(GenerationError):
    """A remote generation request timed out (after retries)."""


class RemoteError(GenerationError):
    """The remote generator answered with an error status."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class RetriesExhausted(GenerationError):
    """All retry attempts against the remote generator failed."""


class ReplayMiss(GenerationError):
    """A replay endpoint saw an input absent from its log."""


class ReplayConflict(GenerationError):
    """A replay log maps the same input to two different outputs."""


class OracleMiss(GenerationError):
    """An oracle-lookup endpoint saw a query it has no gold parse for."""


class MalformedRow(GandrError, ValueError):
    """A dataset row could not be turned into an exemplar."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SeparatorCollision(MalformedRow):
    """A row contains one of the augmentation separator literals."""


class CountExceedsCorpus(GandrError, ValueError):
    """A fixed-count split asked for more exemplars than exist."""


class VersionMismatch(GandrError):
    """A persisted artifact carries an unknown format or version."""


class CorruptFile(GandrError):
    """A persisted artifact is truncated or fails to parse."""


class RecordNotFound(GandrError, LookupError):
    """An unknown exemplar id: the store has no exemplar with it."""
