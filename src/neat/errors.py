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
    """Stack evaluation underflowed or left more than one operand.

    ``segment`` is the index of the offending segment when the error comes
    from a multi-segment sequence, else None.
    """

    def __init__(self, message: str, segment: int | None = None):
        super().__init__(message if segment is None else f"segment {segment}: {message}")
        self.segment = segment


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
