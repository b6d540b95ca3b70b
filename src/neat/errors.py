"""Exception types shared across the package."""


class NeatError(Exception):
    """Base class for all package-specific errors."""


# --- ingestion ---

class MissingTarget(NeatError):
    pass


class EmptyAfterCleaning(NeatError):
    pass


class DuplicateColumnName(NeatError):
    pass


class TooFewRows(NeatError):
    pass


# --- expressions ---

class InvalidPostfix(NeatError):
    """A postfix walk underflowed, left more than one operand or met a token
    outside the grammar."""


class FeatureIndexOutOfRange(NeatError):
    pass


class MissingSOS(NeatError):
    pass


class MissingEOS(NeatError):
    pass


class EmptySegment(NeatError):
    pass


class UnknownToken(NeatError):
    pass


class SequenceTooLong(NeatError):
    pass


# --- utility metric ---

class DegenerateK(NeatError):
    pass


class SingleFeature(NeatError):
    pass


# --- numeric substrate / checkpoints ---

class ShapeMismatch(NeatError):
    pass


class CorruptCheckpoint(NeatError):
    pass


class VersionMismatch(NeatError):
    pass


# --- training ---

class BatchTooSmall(NeatError):
    pass


class CheckpointMismatch(NeatError):
    pass


# --- pipeline / configuration ---

class ConfigHashMismatch(NeatError):
    pass


class MalformedRecord(NeatError):
    """A record line of a record file is not ``<utility>\\t<sequence>`` with a
    finite utility, or its header's ``steps`` is not a positive integer."""
