"""Error types shared across the package; each carries a stable code."""

from __future__ import annotations


class SynthkitError(Exception):
    code = "error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class DimensionMismatch(SynthkitError):
    code = "dimension-mismatch"


class ZeroCoordinate(SynthkitError):
    """Exponential bases must have every coordinate nonzero."""

    code = "zero-exponential-coordinate"


class EmptyShiftList(SynthkitError):
    code = "empty-shift-list"


class MultiTermInput(SynthkitError):
    """Raised where a single exponential term is required."""

    code = "multi-term-input"


class InfiniteOrder(SynthkitError):
    """Vanishing order of the zero function or zero ideal."""

    code = "infinite-order"


class PositiveDimensional(SynthkitError):
    """Infinite zero set; supply candidate exponentials."""

    code = "positive-dimensional-zero-set"


class WindowTooSmall(SynthkitError):
    code = "window-too-small"


class DegreeBoundRequired(SynthkitError):
    code = "degree-bound-required"


class SpuriousRoot(SynthkitError):
    """Supplied candidate is not a common root."""

    code = "spurious-root"


class ParseError(SynthkitError):
    code = "syntax-error"

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class CommandError(SynthkitError):
    code = "command-error"


class UsageError(SynthkitError):
    """A command line the argument parser rejects."""

    code = "usage-error"
