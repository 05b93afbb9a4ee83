import importlib
from pathlib import Path

from entroscope import (
    BinningSpec,
    Frequency,
    WindowSequenceSpec,
    detect_events,
    log_returns,
    serialize_csv,
    spectra_for_series,
)

from _fixtures import make_intraday

BENCHMARK = Path(__file__).parents[1] / "benchmark"


def test_traced_names_resolve_to_callables(monkeypatch):
    # The traced benchmark swaps wrappers in with getattr on these module
    # globals; a deleted or renamed name would end a traced run early.
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    assert tracing.WRAPPED
    for module_name, attribute, *_ in tracing.WRAPPED:
        module = importlib.import_module(f"entroscope.{module_name}")
        assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute}"


def test_traced_readers_accept_real_results(monkeypatch):
    # The tracer also reads each call: the instrument from its arguments
    # and counts from its result. An API change those readers miss would
    # otherwise surface only in a traced benchmark run.
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    closes = [100.0] * 8 + [100.0 + 0.1 * k for k in range(1, 3 * 78 - 7)]
    series = make_intraday(closes, instrument="x")  # one run of 8 equal closes
    text = serialize_csv(series)
    returns = log_returns(series)
    spec = WindowSequenceSpec(base_length=78, increment=78, steps=1, stride=1)
    table = spectra_for_series(returns, spec, BinningSpec(10))
    # attribute: (arguments of one real call, counts its reader must give)
    calls = {
        "parse_csv": (
            (text + "2025-01-05 09:30:00,-1\n", Frequency.FIVE_MINUTE, "x"),
            {"rows": len(series) + 1, "dropped": 1},
        ),
        "serialize_csv": ((series,), {"bytes": len(text)}),
        "dedup_closed_market": ((series,), {"removed": 7}),
        "spectra_for_series": (
            (returns, spec, BinningSpec(10)),
            {"sequences": len(table), "windows": 2 * len(table)},
        ),
        "detect_events": ((table,), {"events": len(detect_events(table))}),
    }
    read = 0
    for module_name, attribute, _, instrument_of, counts_of in tracing.WRAPPED:
        if counts_of is None:
            continue
        assert attribute in calls, f"no call of {module_name}.{attribute} to read"
        args, want = calls[attribute]
        result = getattr(importlib.import_module(f"entroscope.{module_name}"), attribute)(*args)
        if instrument_of is not None:
            assert instrument_of(args, {}) == "x", attribute
        counts = counts_of(result)
        assert counts == want, attribute
        read += 1
    assert read == len(calls)
