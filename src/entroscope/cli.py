"""Command-line pipeline: ingest -> returns -> reports.

Subcommands: ``ingest`` (normalize and clean raw CSVs), ``compare``
(before/after entropy and dispersion table), ``spectrum`` (expanding-window
entropy spectra, monthly profile, event list), ``pmf`` (single-day vs
multi-day distribution snapshots under shared binning), ``synth``
(synthetic fixtures). Batch runs are driven by one JSON config; flags
override config values. Exit codes: 0 ok, 2 input error, 3 insufficient
data.

Outputs are plain CSV files, written deterministically: rerunning a
command on identical inputs produces byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cumulative import (
    GROW_LEFT,
    GROW_RIGHT,
    EventSignature,
    SpectrumTable,
    WindowSequenceSpec,
    detect_events,
    spectra_for_series,
)
from .entropy import BinnedDistribution, BinningSpec, pmf_snapshot, velleman_bins
from .errors import (
    AmbiguousTimestampFormat,
    DegenerateDenominator,
    EmptyInput,
    EmptyWindow,
    InsufficientBaseline,
    OutOfRange,
    PipelineError,
    SeriesTooShort,
    TooShort,
)
from .ingest import (
    DEFAULT_DEDUP_RUN_LENGTH,
    Frequency,
    aggregate_to_daily,
    dedup_closed_market,
    format_timestamp,
    parse_csv_file,
    serialize_csv,
)
from .returns import ReturnKind, ReturnSeries, bracket_windows, log_returns, nominal_returns
from .stats import Metric, compare_windows
from .synth import Shock, ShockShape, SynthSpec, generate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INSUFFICIENT = 3

RANGE_FIXED = "fixed"
RANGE_PER_WINDOW = "per-window"


@dataclass
class InstrumentEntry:
    instrument_id: str
    path: str
    frequency: Frequency


@dataclass
class SequenceConfig:
    """Window-sequence geometry; unset lengths default to one trading day
    of bars resolved from the data."""

    base_length: int | None = None
    increment: int | None = None
    steps: int = 13
    stride: int | None = None
    anchor_mode: str = GROW_RIGHT


@dataclass
class RunConfig:
    instruments: list[InstrumentEntry] = field(default_factory=list)
    anchor_date: str | None = None
    window_days: int = 100
    bins: int | None = None
    dt_col: str = "timestamp"
    close_col: str = "close"
    dedup_run_length: int = DEFAULT_DEDUP_RUN_LENGTH
    return_kind: ReturnKind = ReturnKind.LOG
    aggregate_daily: bool = False
    range_policy: str = RANGE_FIXED
    sequence: SequenceConfig = field(default_factory=SequenceConfig)
    theta: float = 3.0
    min_persistence: int = 2
    baseline: int = 8
    out_dir: str = "out"
    jobs: int = 4  # accepted for existing configs; instruments run serially


_CONFIG_KEYS = {
    "instruments",
    "anchor_date",
    "window_days",
    "bins",
    "dt_col",
    "close_col",
    "dedup_run_length",
    "return_kind",
    "aggregate_daily",
    "range_policy",
    "sequence",
    "theta",
    "min_persistence",
    "baseline",
    "out_dir",
    "jobs",
}
_SEQUENCE_KEYS = {"base_length", "increment", "steps", "stride", "anchor_mode"}


def load_config(path: str | Path) -> RunConfig:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    config = RunConfig()
    for entry in raw.get("instruments", []):
        config.instruments.append(
            InstrumentEntry(
                instrument_id=entry["id"],
                path=entry["path"],
                frequency=Frequency(entry["frequency"]),
            )
        )
    seq_raw = raw.get("sequence", {})
    unknown = set(seq_raw) - _SEQUENCE_KEYS
    if unknown:
        raise ValueError(f"unknown sequence keys: {sorted(unknown)}")
    config.sequence = SequenceConfig(**seq_raw)
    if config.sequence.anchor_mode not in (GROW_RIGHT, GROW_LEFT):
        raise ValueError(f"unknown anchor_mode {config.sequence.anchor_mode!r}")

    for key in _CONFIG_KEYS - {"instruments", "sequence", "return_kind"}:
        if key in raw:
            setattr(config, key, raw[key])
    if "return_kind" in raw:
        config.return_kind = ReturnKind(raw["return_kind"])
    if config.range_policy not in (RANGE_FIXED, RANGE_PER_WINDOW):
        raise ValueError(f"unknown range_policy {config.range_policy!r}")
    return config


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> None:
    if getattr(args, "out", None) is not None:
        config.out_dir = args.out
    if getattr(args, "dt_col", None) is not None:
        config.dt_col = args.dt_col
    if getattr(args, "close_col", None) is not None:
        config.close_col = args.close_col
    if getattr(args, "bins", None) is not None:
        config.bins = args.bins
    if getattr(args, "theta", None) is not None:
        config.theta = args.theta


def _load_returns(config: RunConfig, entry: InstrumentEntry) -> ReturnSeries:
    series, _ = parse_csv_file(
        entry.path,
        entry.frequency,
        entry.instrument_id,
        dt_col=config.dt_col,
        close_col=config.close_col,
    )
    if config.aggregate_daily and series.frequency is Frequency.FIVE_MINUTE:
        series = aggregate_to_daily(series)
    if config.return_kind is ReturnKind.LOG:
        return log_returns(series)
    return nominal_returns(series)


def _bars_per_day(returns: ReturnSeries) -> int:
    _, counts = np.unique(returns.dates(), return_counts=True)
    values, freq = np.unique(counts, return_counts=True)
    return int(values[np.argmax(freq)])


def _resolve_sequence(config: RunConfig, returns: ReturnSeries) -> WindowSequenceSpec:
    seq = config.sequence
    day = _bars_per_day(returns)
    if day >= 2:
        base = seq.base_length if seq.base_length is not None else day
        increment = seq.increment if seq.increment is not None else day
        stride = seq.stride if seq.stride is not None else day
    else:
        # Daily data: one bar per day, so day-based defaults degenerate.
        base = seq.base_length if seq.base_length is not None else 10
        increment = seq.increment if seq.increment is not None else 5
        stride = seq.stride if seq.stride is not None else 5
    return WindowSequenceSpec(
        base_length=base,
        increment=increment,
        steps=seq.steps,
        stride=stride,
        anchor_mode=seq.anchor_mode,
    )


def _spectrum_binning(config: RunConfig, returns: ReturnSeries, base_length: int) -> BinningSpec:
    n_bins = config.bins if config.bins is not None else velleman_bins(base_length)
    if config.range_policy == RANGE_PER_WINDOW:
        return BinningSpec(n_bins)
    lo = float(returns.values.min())
    hi = float(returns.values.max())
    if hi == lo:
        return BinningSpec(n_bins)
    return BinningSpec(n_bins, lo=lo, hi=hi)


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _try_call(fn, config, entry, **kwargs):
    try:
        return fn(config, entry, **kwargs), None
    except (PipelineError, FileNotFoundError, ValueError) as exc:
        return None, exc


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    _apply_overrides(config, args)
    if not config.instruments:
        print("error: config lists no instruments", file=sys.stderr)
        return EXIT_INPUT

    missing = [e for e in config.instruments if not Path(e.path).exists()]
    if missing:
        for entry in missing:
            print(f"{entry.instrument_id}: error: file not found: {entry.path}", file=sys.stderr)
        return EXIT_INPUT

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for entry in config.instruments:
        try:
            series, diag = parse_csv_file(
                entry.path,
                entry.frequency,
                entry.instrument_id,
                dt_col=config.dt_col,
                close_col=config.close_col,
            )
            removed = 0
            if series.frequency is Frequency.FIVE_MINUTE:
                series, dedup_diag = dedup_closed_market(series, config.dedup_run_length)
                removed = dedup_diag.removed
            out_path = out_dir / f"{entry.instrument_id}.csv"
            out_path.write_text(serialize_csv(series), encoding="utf-8")
            print(
                f"{entry.instrument_id}: rows={len(series)} dropped={diag.dropped} "
                f"removed={removed} -> {out_path}"
            )
        except (EmptyInput, AmbiguousTimestampFormat) as exc:
            print(f"{entry.instrument_id}: error: {exc}", file=sys.stderr)
            failures += 1
    return EXIT_INPUT if failures else EXIT_OK


def _compare_row(config: RunConfig, entry: InstrumentEntry) -> str:
    returns = _load_returns(config, entry)
    before, after = bracket_windows(returns, config.anchor_date, config.window_days)
    n_bins = config.bins if config.bins is not None else velleman_bins(len(before))
    entropy_cmp = compare_windows(
        returns, before, after, Metric.ENTROPY, binning=BinningSpec(n_bins)
    )
    std_cmp = compare_windows(returns, before, after, Metric.STD_DEV)
    return (
        f"{entry.instrument_id},"
        f"{entropy_cmp.before:.6f},{entropy_cmp.after:.6f},{entropy_cmp.pct_difference:.6f},"
        f"{std_cmp.before:.6f},{std_cmp.after:.6f},{std_cmp.pct_difference:.6f}"
    )


def cmd_compare(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    _apply_overrides(config, args)
    if not config.instruments:
        print("error: config lists no instruments", file=sys.stderr)
        return EXIT_INPUT
    if config.anchor_date is None:
        print("error: compare requires anchor_date in the config", file=sys.stderr)
        return EXIT_INPUT

    outcomes = [_try_call(_compare_row, config, entry) for entry in config.instruments]

    lines = [
        "instrument,entropy_before,entropy_after,entropy_pct_diff,"
        "std_before,std_after,std_pct_diff"
    ]
    failures = 0
    for entry, (row, error) in zip(config.instruments, outcomes):
        if error is not None:
            print(f"{entry.instrument_id}: error: {error}", file=sys.stderr)
            failures += 1
        else:
            lines.append(row)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "compare.csv", lines)
    return EXIT_INPUT if failures == len(config.instruments) else EXIT_OK


def _spectrum_lines(table: SpectrumTable, frequency: Frequency) -> tuple[list[str], list[str]]:
    unit = "D" if frequency is Frequency.DAILY else "s"
    anchors = np.datetime_as_string(table.anchor_timestamps, unit=unit).tolist()
    cells = [f"{k},{n}," for k, n in enumerate((table.ends[0] - table.starts[0]).tolist())]
    rows = ["sequence_index,anchor_timestamp,k,window_len,H"]
    for j, (anchor, values) in enumerate(zip(anchors, table.values.tolist())):
        head = f"{j},{anchor.replace('T', ' ')},"
        rows += [f"{head}{cell}{h:.6f}" for cell, h in zip(cells, values)]

    # Anchors ascend, so each month's sequences are contiguous.
    peaks = table.peaks
    months, firsts, counts = np.unique(
        table.anchor_timestamps.astype("datetime64[M]"), return_index=True, return_counts=True
    )
    monthly = ["month,mean_peak_entropy,max_peak_entropy,sequences"]
    for month, first, count in zip(
        np.datetime_as_string(months).tolist(), firsts.tolist(), counts.tolist()
    ):
        group = peaks[first : first + count]
        monthly.append(f"{month},{float(np.mean(group)):.6f},{group.max():.6f},{count}")
    return rows, monthly


def _event_lines(events: list[EventSignature], frequency: Frequency) -> list[str]:
    lines = ["onset_timestamp,peak_value,ramp_slope,persistence"]
    for ev in events:
        lines.append(
            f"{format_timestamp(ev.onset_timestamp, frequency)},"
            f"{ev.peak_value:.6f},{ev.ramp_slope:.6f},{ev.persistence}"
        )
    return lines


def _restrict_dates(returns: ReturnSeries, from_date, to_date) -> ReturnSeries:
    if from_date is None and to_date is None:
        return returns
    dates = returns.dates()
    mask = np.ones(len(returns), dtype=bool)
    if from_date is not None:
        mask &= dates >= np.datetime64(from_date, "D")
    if to_date is not None:
        mask &= dates <= np.datetime64(to_date, "D")
    if not mask.any():
        raise EmptyInput(f"{returns.instrument_id}: no observations in requested date range")
    return ReturnSeries(
        returns.instrument_id,
        returns.kind,
        returns.frequency,
        returns.timestamps[mask],
        returns.values[mask],
    )


def _spectrum_outputs(config: RunConfig, entry: InstrumentEntry, from_date=None, to_date=None):
    returns = _restrict_dates(_load_returns(config, entry), from_date, to_date)
    seq_spec = _resolve_sequence(config, returns)
    binning = _spectrum_binning(config, returns, seq_spec.base_length)
    table = spectra_for_series(returns, seq_spec, binning)
    events = detect_events(
        table,
        threshold=config.theta,
        min_persistence=config.min_persistence,
        baseline=config.baseline,
    )
    rows, monthly = _spectrum_lines(table, returns.frequency)
    return rows, monthly, _event_lines(events, returns.frequency), len(table), len(events)


def cmd_spectrum(args: argparse.Namespace) -> int:
    """Write the outputs of every instrument that succeeds and report each
    failure. The exit code is that of the first failure: 3 when its series
    is too short for the geometry or the detector baseline, 2 otherwise."""
    config = load_config(args.config)
    _apply_overrides(config, args)
    if not config.instruments:
        print("error: config lists no instruments", file=sys.stderr)
        return EXIT_INPUT

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    exit_code = EXIT_OK
    for entry in config.instruments:
        result, error = _try_call(
            _spectrum_outputs, config, entry, from_date=args.from_date, to_date=args.to_date
        )
        if error is not None:
            print(f"{entry.instrument_id}: error: {error}", file=sys.stderr)
            if exit_code == EXIT_OK:
                insufficient = isinstance(error, (SeriesTooShort, InsufficientBaseline))
                exit_code = EXIT_INSUFFICIENT if insufficient else EXIT_INPUT
            continue
        rows, monthly, events, n_sequences, n_events = result
        _write(out_dir / f"{entry.instrument_id}_spectrum.csv", rows)
        _write(out_dir / f"{entry.instrument_id}_monthly.csv", monthly)
        _write(out_dir / f"{entry.instrument_id}_events.csv", events)
        print(f"{entry.instrument_id}: sequences={n_sequences} events={n_events}")
    return exit_code


def _pmf_lines(dist: BinnedDistribution) -> list[str]:
    lines = ["bin_lo,bin_hi,mass"]
    edges = dist.edges()
    for i, mass in enumerate(dist.masses):
        lines.append(f"{edges[i]:.6f},{edges[i + 1]:.6f},{mass:.6f}")
    return lines


def cmd_pmf(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    _apply_overrides(config, args)
    if not config.instruments:
        print("error: config lists no instruments", file=sys.stderr)
        return EXIT_INPUT
    if args.instrument is None:
        entry = config.instruments[0]
    else:
        matches = [e for e in config.instruments if e.instrument_id == args.instrument]
        if not matches:
            print(f"error: instrument {args.instrument!r} not in config", file=sys.stderr)
            return EXIT_INPUT
        entry = matches[0]

    returns = _load_returns(config, entry)
    snapshot = pmf_snapshot(
        returns, args.day, preceding_days=args.span_days, n_bins=config.bins
    )
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / f"{entry.instrument_id}_pmf_day.csv", _pmf_lines(snapshot.day_dist))
    _write(out_dir / f"{entry.instrument_id}_pmf_span.csv", _pmf_lines(snapshot.span_dist))
    print(
        f"{entry.instrument_id}: H(day)={snapshot.day_entropy:.6f} "
        f"H(span)={snapshot.span_entropy:.6f}"
    )
    return EXIT_OK


def _parse_shock(text: str) -> Shock:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"shock must be DAY:MAGNITUDE:SHAPE, got {text!r}")
    return Shock(int(parts[0]), float(parts[1]), ShockShape(parts[2]))


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        seed=args.seed,
        n_days=args.days,
        bars_per_day=args.bars_per_day,
        drift=args.mu,
        volatility=args.sigma,
        shocks=tuple(_parse_shock(s) for s in args.shock),
        instrument_id=args.id,
    )
    series, injections = generate(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    price_path = out_dir / f"{args.id}.csv"
    price_path.write_text(serialize_csv(series), encoding="utf-8")

    lines = ["timestamp,magnitude_sigma,shape"]
    for rec in injections:
        lines.append(
            f"{format_timestamp(rec.timestamp, series.frequency)},"
            f"{rec.magnitude_sigma:.6f},{rec.shape.value}"
        )
    _write(out_dir / f"{args.id}_injections.csv", lines)
    print(f"{args.id}: bars={len(series)} shocks={len(injections)} -> {price_path}")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, config_required: bool = True) -> None:
    sub.add_argument("--config", required=config_required, help="JSON run config")
    sub.add_argument("--out", help="output directory (overrides config)")
    sub.add_argument("--dt-col", help="datetime column name (overrides config)")
    sub.add_argument("--close-col", help="close column name (overrides config)")
    sub.add_argument("--bins", type=int, help="bin count (overrides config)")
    sub.add_argument("--theta", type=float, help="detector threshold (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroscope",
        description="Entropy-based market analysis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize and clean raw price CSVs")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("compare", help="before/after entropy and dispersion table")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("spectrum", help="expanding-window entropy spectra and events")
    _add_common(p)
    p.add_argument("--from-date", help="restrict analysis to dates >= this (YYYY-MM-DD)")
    p.add_argument("--to-date", help="restrict analysis to dates <= this (YYYY-MM-DD)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("pmf", help="single-day vs span distribution snapshots")
    _add_common(p)
    p.add_argument("--day", required=True, help="target date YYYY-MM-DD")
    p.add_argument("--span-days", type=int, default=14, help="preceding trading days in the span")
    p.add_argument("--instrument", help="instrument id from the config (default: first)")
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("synth", help="generate a synthetic market fixture")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--days", type=int, default=20)
    p.add_argument("--bars-per-day", type=int, default=78)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=0.001)
    p.add_argument("--shock", action="append", default=[], help="DAY:MAGNITUDE:SHAPE")
    p.add_argument("--id", default="synth")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SeriesTooShort, InsufficientBaseline, TooShort) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (
        EmptyInput,
        AmbiguousTimestampFormat,
        OutOfRange,
        DegenerateDenominator,
        EmptyWindow,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
