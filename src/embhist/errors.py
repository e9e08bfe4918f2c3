"""Exception taxonomy shared by all modules, and the length-checked unpack
that the binary readers use to turn a short file into a FormatError.

The CLI maps these onto exit codes (config 2, verification 3, data/format 4).
"""

import struct


class EmbhistError(Exception):
    """Base class for all package errors."""


class DimensionError(EmbhistError):
    """Shape or dimension mismatch between numeric operands."""


class SchemaError(EmbhistError):
    """Unknown variable/feature, overlapping variable sets, or invalid schema."""


class ConfigError(EmbhistError):
    """Invalid or inconsistent configuration."""


class DataError(EmbhistError):
    """Empty or degenerate data where the operation needs substance."""


class FormatError(EmbhistError):
    """Malformed on-disk artifact (bad magic, truncation, corrupt record)."""


def unpack_from(fmt: str, blob: bytes, off: int) -> tuple[tuple, int]:
    """struct.unpack_from with a length check; returns (values, next offset)."""
    size = struct.calcsize(fmt)
    if off + size > len(blob):
        raise FormatError(f"truncated file: {size} bytes needed at offset {off}, "
                          f"{max(len(blob) - off, 0)} left")
    return struct.unpack_from(fmt, blob, off), off + size


class SizeError(EmbhistError):
    """Enumeration budget exceeded."""


class NumericError(EmbhistError):
    """Non-finite values or numerically impossible results."""


class DomainError(EmbhistError):
    """Inputs outside the mathematical domain of a closed-form expression."""


class ContractViolation(EmbhistError):
    """An internal API contract was broken (e.g. stale backward tape)."""


class VerificationError(EmbhistError):
    """A theory identity/inequality check failed."""


class MetricError(EmbhistError):
    """Metric undefined for the given inputs (single-class labels etc.)."""
