"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: input-shaped problems exit 2,
insufficient-data problems exit 3.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(PipelineError):
    """No usable rows or points were found in the input."""


class AmbiguousTimestampFormat(PipelineError):
    """A file mixes date-only and intraday timestamps; the declared
    frequency cannot decide which subset is authoritative."""


class TooShort(PipelineError):
    """Series has fewer observations than the operation requires."""


class OutOfRange(PipelineError):
    """A requested date or window lies outside the available data."""


class DegenerateDenominator(PipelineError):
    """Symmetric percentage difference is undefined (before + after == 0)."""


class EmptyWindow(PipelineError):
    """A window selected for binning contains no values."""


class SeriesTooShort(PipelineError):
    """Series cannot accommodate the requested window sequence."""


class InsufficientBaseline(PipelineError):
    """Too few spectra to estimate the detector baseline."""


class MalformedCsv(PipelineError):
    """The text cannot be split into CSV records (the csv module's error,
    such as a field larger than its size limit)."""
