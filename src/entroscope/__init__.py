"""Information-theoretic market analysis: binned-entropy diagnostics,
expanding-window entropy spectra, and extreme-event localization for
price series, validated against a seedable synthetic market."""

from .cumulative import (
    EntropySpectrum,
    EventSignature,
    SpectrumTable,
    WindowSequenceSpec,
    detect_events,
    spectra_for_series,
    window_bounds,
)
from .entropy import (
    BinnedDistribution,
    BinningSpec,
    PmfSnapshot,
    bin_returns,
    pmf_snapshot,
    shannon_entropy,
    velleman_bins,
    window_entropy,
)
from .errors import (
    AmbiguousTimestampFormat,
    DegenerateDenominator,
    EmptyInput,
    EmptyWindow,
    InsufficientBaseline,
    MalformedCsv,
    OutOfRange,
    PipelineError,
    SeriesTooShort,
    TooShort,
)
from .ingest import (
    Diagnostics,
    Frequency,
    PriceSeries,
    aggregate_to_daily,
    dedup_closed_market,
    parse_csv,
    parse_csv_file,
    serialize_csv,
)
from .returns import (
    ReturnKind,
    ReturnSeries,
    bracket_windows,
    log_returns,
    nominal_returns,
)
from .stats import (
    BeforeAfterComparison,
    SummaryStats,
    compare_windows,
    pct_difference,
    summarize_values,
)
from .synth import InjectionRecord, Shock, ShockShape, SynthSpec, generate

__version__ = "0.1.0"
