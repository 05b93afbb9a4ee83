r"""CSV price-data ingestion and cleaning.

Raw provider files arrive with mixed timestamp conventions; everything is
normalized to a single target format: ``YYYY-MM-DD`` for daily data and
``YYYY-MM-DD HH:MM:SS`` for 5-minute data (a hyphenated time variant
``HH-MM-SS`` is accepted on input and normalized). Rows with unparseable
timestamps or non-positive/non-finite prices are dropped and counted
rather than interpolated.

Parsing has one fast path and one row function. Under a header that is
exactly ``<dt_col>,<close_col>``, every line shaped ``YYYY-MM-DD,P`` or
``YYYY-MM-DD HH:MM:SS,P``, with ``P`` a plain decimal (``\d+(\.\d+)?``,
at most 32 bytes), is decoded by whole-column numpy work in ``codec``.
Every other record (quoted fields, ``\r``, padding whitespace, signs,
exponents, ``nan``, ``T``-separated or hyphenated times, blank lines,
extra or missing columns, any other header) is read by ``csv.DictReader``
and judged by ``_parse_row``; both paths drop rows for the same reasons.

Closed-market artifacts, where a feed keeps emitting copies of the last
open-market close, are removed by a run-length rule: any maximal run of
identical consecutive closes longer than a threshold is truncated to its
first point.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import codec
from .errors import AmbiguousTimestampFormat, EmptyInput, MalformedCsv


class Frequency(Enum):
    DAILY = "daily"
    FIVE_MINUTE = "5min"


_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_DT_COLON_RE = re.compile(r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}$")
_DT_HYPHEN_RE = re.compile(r"^\d{4}-\d{2}-\d{2} \d{2}-\d{2}-\d{2}$")

DEFAULT_DEDUP_RUN_LENGTH = 6  # 6 five-minute bars = 30 minutes


@dataclass
class Diagnostics:
    """Counts of rows/points discarded during cleaning."""

    dropped: int = 0
    removed: int = 0
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Timestamped close prices for one instrument at one frequency.

    Timestamps are UTC-naive ``datetime64[s]``, strictly increasing; closes
    are finite and positive. Daily series carry no time-of-day component.
    Instances are immutable and safe to share between threads.
    """

    instrument_id: str
    frequency: Frequency
    timestamps: np.ndarray
    closes: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[s]")
        cl = np.asarray(self.closes, dtype=np.float64)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "closes", cl)
        if ts.shape != cl.shape or ts.ndim != 1:
            raise ValueError("timestamps and closes must be 1-d arrays of equal length")
        if len(ts) > 1 and not np.all(ts[1:] > ts[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        if len(cl) and (not np.all(np.isfinite(cl)) or not np.all(cl > 0)):
            raise ValueError("closes must be finite and positive")
        if self.frequency is Frequency.DAILY and len(ts):
            if not np.array_equal(ts, ts.astype("datetime64[D]").astype("datetime64[s]")):
                raise ValueError("daily series must not retain a time-of-day component")

    def __len__(self) -> int:
        return len(self.closes)

    def dates(self) -> np.ndarray:
        return self.timestamps.astype("datetime64[D]")


def _classify_timestamp(text: str) -> str | None:
    """Return 'date', 'intraday', or None for unrecognized shapes."""
    if _DATE_RE.match(text):
        return "date"
    if _DT_COLON_RE.match(text) or _DT_HYPHEN_RE.match(text):
        return "intraday"
    return None


def _normalize_intraday(text: str) -> str:
    if _DT_HYPHEN_RE.match(text):
        date_part, time_part = text.split(" ")
        return date_part + " " + time_part.replace("-", ":")
    return text


class _Lines:
    """The text's lines, each with its line end, from line ``pos`` on.

    This is the input of ``csv.DictReader``, which pulls exactly one line
    at a time and returns a record once a line completes it; between
    records ``pos`` may be moved to any line.
    """

    def __init__(self, data: bytes):
        self.data = data
        self.buf = np.frombuffer(data, dtype=np.uint8)
        ends = np.flatnonzero(self.buf == 10)
        self.starts = np.concatenate(([0], ends + 1))
        self.ends = np.append(ends, len(data))
        if self.starts[-1] == len(data):  # nothing after the last line end
            self.starts, self.ends = self.starts[:-1], self.ends[:-1]
        self.pos = 0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        if self.pos >= len(self.starts):
            raise StopIteration
        line = self.data[self.starts[self.pos] : self.ends[self.pos] + 1]
        self.pos += 1
        return line.decode("utf-8", "surrogatepass")


def _parse_row(row: dict, dt_col: str, close_col: str, wanted_shape: str):
    """The rule for one record of the CSV: ``(shape, parsed)``, where
    ``shape`` is the stamp's shape ('date', 'intraday' or None) and
    ``parsed`` is ``(seconds, price)``, or None when the row is dropped."""
    ts_text = (row.get(dt_col) or "").strip()
    price_text = (row.get(close_col) or "").strip()
    shape = _classify_timestamp(ts_text)
    if shape != wanted_shape:
        return shape, None
    try:
        ts = np.datetime64(_normalize_intraday(ts_text), "s")
        price = float(price_text)
    except ValueError:
        return shape, None
    if not math.isfinite(price) or price <= 0:
        return shape, None
    return shape, (int(ts.astype(np.int64)), price)


def _read(step):
    """``step()``, with the csv module's error raised as MalformedCsv."""
    try:
        return step()
    except csv.Error as exc:
        raise MalformedCsv(str(exc)) from None


def parse_csv(
    raw_text: str,
    frequency: Frequency,
    instrument_id: str,
    dt_col: str = "timestamp",
    close_col: str = "close",
) -> tuple[PriceSeries, Diagnostics]:
    """Parse raw CSV text into a normalized, ascending PriceSeries.

    Rows whose timestamp shape does not match the declared frequency, whose
    timestamp has invalid components, or whose price is non-positive or
    non-finite are dropped and counted in the returned diagnostics. Files
    mixing date-only and intraday stamps raise AmbiguousTimestampFormat;
    files with no valid rows raise EmptyInput; text the csv module cannot
    split into records raises MalformedCsv.

    Under a ``dt_col,close_col`` header, lines of the fast shapes (see
    ``codec.scan_rows``) are decoded together by whole-column numpy work;
    every other record goes through ``csv`` and ``_parse_row``, with the
    same drop reasons.
    """
    lines = _Lines(raw_text.encode("utf-8", "surrogatepass"))
    reader = csv.DictReader(lines)
    header = _read(lambda: reader.fieldnames)
    if header is None:
        raise EmptyInput("no header row")
    if dt_col not in header or close_col not in header:
        raise EmptyInput(f"required columns {dt_col!r}/{close_col!r} not in header {header}")

    wanted_shape = "date" if frequency is Frequency.DAILY else "intraday"
    first = lines.pos
    shape, seconds, valid, prices = codec.scan_rows(
        lines.buf, lines.starts[first:], lines.ends[first:]
    )
    if header != [dt_col, close_col] or dt_col == close_col:
        shape[:] = codec.OTHER  # the fast shapes hold exactly these two columns
    fast = shape != codec.OTHER

    # Records outside the fast shapes, in file order. A record may span
    # lines (a quoted field holding a line end); lines it takes in are
    # taken off the fast path. Its result is kept at its first line, so
    # that accepted rows stay in file order.
    seen_shapes: set[str] = set()
    slow: list[tuple[int, int, float]] = []
    dropped = 0
    for i in np.flatnonzero(~fast).tolist():
        if first + i < lines.pos:
            continue
        lines.pos = first + i
        try:
            row = _read(reader.__next__)
        except StopIteration:
            break
        fast[i : lines.pos - first] = False
        row_shape, parsed = _parse_row(row, dt_col, close_col, wanted_shape)
        if row_shape is not None:
            seen_shapes.add(row_shape)
        if parsed is None:
            dropped += 1
        else:
            slow.append((i, *parsed))

    for code, name in ((codec.DATE, "date"), (codec.INTRADAY, "intraday")):
        if np.any(fast & (shape == code)):
            seen_shapes.add(name)
    wanted_code = codec.DATE if frequency is Frequency.DAILY else codec.INTRADAY
    accept = fast & (shape == wanted_code) & valid & (prices > 0)
    dropped += int(fast.sum() - accept.sum())

    if len(seen_shapes) > 1:
        raise AmbiguousTimestampFormat("file mixes date-only and intraday timestamps")
    if slow:
        at, slow_seconds, slow_prices = zip(*slow)
        accept[list(at)] = True
        seconds[list(at)] = slow_seconds
        prices[list(at)] = slow_prices
    if not accept.any():
        raise EmptyInput("no valid rows")

    ts_arr = seconds[accept].view("datetime64[s]")
    cl_arr = prices[accept]
    order = np.argsort(ts_arr, kind="stable")
    ts_arr = ts_arr[order]
    cl_arr = cl_arr[order]

    # Duplicate timestamps: keep the first occurrence, count the rest.
    if len(ts_arr) > 1:
        keep = np.concatenate(([True], ts_arr[1:] > ts_arr[:-1]))
        dup = int(len(ts_arr) - keep.sum())
        if dup:
            dropped += dup
            ts_arr = ts_arr[keep]
            cl_arr = cl_arr[keep]

    series = PriceSeries(instrument_id, frequency, ts_arr, cl_arr)
    return series, Diagnostics(dropped=dropped)


def parse_csv_file(
    path: str | Path,
    frequency: Frequency,
    instrument_id: str,
    dt_col: str = "timestamp",
    close_col: str = "close",
) -> tuple[PriceSeries, Diagnostics]:
    text = Path(path).read_text(encoding="utf-8")
    return parse_csv(text, frequency, instrument_id, dt_col=dt_col, close_col=close_col)


def serialize_csv(series: PriceSeries) -> str:
    """Render a PriceSeries in the normalized format: header 'timestamp,close',
    closes with 6 decimal places. parse_csv of the result reproduces the
    series whenever the closes are representable at that precision."""
    daily = series.frequency is Frequency.DAILY
    body = b"".join(
        codec.rows(
            codec.stamps(series.timestamps[lo : lo + codec.BLOCK_ROWS], daily),
            b",",
            codec.fixed6(series.closes[lo : lo + codec.BLOCK_ROWS]),
            b"\n",
        )
        for lo in range(0, len(series), codec.BLOCK_ROWS)
    )
    return "timestamp,close\n" + body.decode("ascii")


def dedup_closed_market(
    series: PriceSeries, run_length: int = DEFAULT_DEDUP_RUN_LENGTH
) -> tuple[PriceSeries, Diagnostics]:
    """Truncate maximal runs of identical consecutive closes longer than
    ``run_length`` to their first point.

    Intended for 5-minute data, where such runs are closed-market copies of
    the last open quote. Daily series are returned unchanged with a warning
    diagnostic. Idempotent: truncated runs have length one and maximal runs
    are bounded by differing values on both sides.
    """
    if series.frequency is Frequency.DAILY:
        return series, Diagnostics(
            warnings=[f"{series.instrument_id}: daily series left unchanged by dedup"]
        )
    n = len(series)
    if n == 0:
        return series, Diagnostics()

    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(series.closes[1:], series.closes[:-1], out=change[1:])
    run_starts = np.flatnonzero(change)
    run_lengths = np.diff(np.append(run_starts, n))

    keep = change | ~np.repeat(run_lengths > run_length, run_lengths)

    removed = int(n - keep.sum())
    if removed == 0:
        return series, Diagnostics()
    out = PriceSeries(
        series.instrument_id,
        series.frequency,
        series.timestamps[keep],
        series.closes[keep],
    )
    return out, Diagnostics(removed=removed)


def aggregate_to_daily(series: PriceSeries) -> PriceSeries:
    """Collapse an intraday series to one point per calendar date, keeping
    the last close of each date."""
    if len(series) == 0:
        raise EmptyInput("nothing to aggregate")
    dates = series.dates()
    uniq, first_idx = np.unique(dates, return_index=True)
    last_idx = np.append(first_idx[1:], len(dates)) - 1
    return PriceSeries(
        series.instrument_id,
        Frequency.DAILY,
        uniq.astype("datetime64[s]"),
        series.closes[last_idx],
    )
