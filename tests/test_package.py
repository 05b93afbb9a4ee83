"""The package namespace and the README's Python example."""
import inspect
import re
from pathlib import Path

import numpy as np

import entroscope

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "AmbiguousTimestampFormat", "BeforeAfterComparison", "BinnedDistribution", "BinningSpec",
    "DegenerateDenominator", "Diagnostics", "EmptyInput", "EmptyWindow", "EntropySpectrum",
    "EventSignature", "Frequency", "InjectionRecord", "InsufficientBaseline", "MalformedCsv",
    "Metric", "OutOfRange", "PipelineError", "PmfSnapshot", "PriceSeries", "ReturnKind",
    "ReturnSeries", "SeriesTooShort", "Shock", "ShockShape", "SpectrumTable", "SummaryStats",
    "SynthSpec", "TooShort", "WindowSequenceSpec", "WindowSlice", "aggregate_to_daily",
    "bin_returns", "bracket_windows", "build_sequences", "compare_windows",
    "dedup_closed_market", "detect_events", "generate", "log_returns", "nominal_returns",
    "parse_csv", "parse_csv_file", "pct_difference", "pmf_snapshot", "serialize_csv",
    "shannon_entropy", "slice_window", "spectra_for_series", "summarize", "summarize_values",
    "velleman_bins", "window_bounds", "window_entropy",
}


def test_public_names_are_package_attributes():
    # Every public name besides the submodules, and no other.
    names = {
        name for name, value in vars(entroscope).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(PUBLIC) == 53 and names == PUBLIC


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    spectra, events, injection = scope["spectra"], scope["events"], scope["injections"][0]
    assert len(events) == 1
    first, last = scope["covered"]
    assert first <= injection.timestamp <= last
    starts, ends = scope["starts"], scope["ends"]
    assert starts.shape == spectra.values.shape == (len(spectra), 4)
    assert np.array_equal(ends[0] - starts[0], spectra.spec.lengths)
