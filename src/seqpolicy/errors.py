"""Exception taxonomy shared across the package.

CLI exit-code mapping: ConfigError -> 2, data errors (SchemaError, the
record-format family and ExhaustedStreamError) -> 3, NonFiniteAbort -> 4.
"""


class SeqPolicyError(Exception):
    """Base class for all package errors."""


class SchemaError(SeqPolicyError, ValueError):
    """Value does not match its declared stream schema."""


class CapacityError(SeqPolicyError, ValueError):
    """A sequence exceeds a fixed table or context capacity."""


class ConfigError(SeqPolicyError, ValueError):
    """Invalid or unknown configuration."""


class RecordFormatError(SeqPolicyError):
    """Base for parsing failures of framed records: episodes and checkpoints."""


class VersionMismatchError(RecordFormatError):
    """Record was written by an unsupported format version."""


class TruncatedRecordError(RecordFormatError):
    """Record ends before its declared length."""


class ChecksumError(RecordFormatError):
    """Record payload does not match its checksum."""


class ExhaustedStreamError(SeqPolicyError):
    """A data stream has nothing left to emit."""


class NonFiniteAbort(SeqPolicyError, ArithmeticError):
    """Training hit a non-finite loss or gradient; aborted with diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class MissingGradientError(SeqPolicyError):
    """A parameter received no gradient during the backward pass."""
