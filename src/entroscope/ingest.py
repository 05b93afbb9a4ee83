r"""CSV price-data ingestion and cleaning, and the series contract.

Every series (prices here, returns in ``returns``) is a ``Stamped``: one
stamp rule (strictly increasing ``datetime64[s]`` stamps, 1-d and as long
as the float64 values) and one trading-day index, ``days``, that every
day window, daily aggregate and bars-per-day count is read from.

Raw provider files arrive with mixed timestamp conventions; everything is
normalized to a single target format: ``YYYY-MM-DD`` for daily data and
``YYYY-MM-DD HH:MM:SS`` for 5-minute data (a hyphenated time variant
``HH-MM-SS`` is accepted on input and normalized). Rows with unparseable
timestamps or non-positive/non-finite prices are dropped and counted
rather than interpolated.

Parsing has one stamp decoder and one drop rule. Under a header that is
exactly ``<dt_col>,<close_col>``, every line shaped ``YYYY-MM-DD,P``,
``YYYY-MM-DD HH:MM:SS,P`` or ``YYYY-MM-DD HH-MM-SS,P``, with ``P`` a plain
decimal (``\d+(\.\d+)?``, at most 32 bytes), is decoded by whole-column
numpy work in ``codec``. Every other record (quoted fields, ``\r``,
padding whitespace, signs, exponents, ``nan``, ``T``-separated times,
blank lines, extra or missing columns, any other header) is only split
by ``csv.DictReader``: its stripped stamp goes through the same
``codec.scan_rows`` and its price through ``float``. Every row is then
judged by one rule over the codec's shape codes. Stamps with non-ASCII
digits have no shape and are dropped as unparseable.

Closed-market artifacts, where a feed keeps emitting copies of the last
open-market close, are removed by a run-length rule: any maximal run of
identical consecutive closes longer than a threshold is truncated to its
first point. Runs of equal closes, of equal stamps (duplicates after the
sort) and of equal dates (trading days, for daily aggregation) all come
from one index, ``codec.runs``.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from . import codec
from .errors import AmbiguousTimestampFormat, EmptyInput, MalformedCsv


class Frequency(Enum):
    DAILY = "daily"
    FIVE_MINUTE = "5min"


DEFAULT_DEDUP_RUN_LENGTH = 6  # 6 five-minute bars = 30 minutes

# The first and the last stamp a series may hold (see ``Stamped``).
_FIRST_STAMP, _LAST_STAMP = np.array(["0000-01-01", "9999-12-31T23:59:59"], "datetime64[s]")


@dataclass
class Diagnostics:
    """Counts of rows/points discarded during cleaning."""

    dropped: int = 0
    removed: int = 0


class Stamped:
    """The rules every timestamped series keeps, for the frozen dataclasses
    ``PriceSeries`` and ``ReturnSeries``: ``timestamps`` as UTC-naive
    ``datetime64[s]``, strictly increasing, and the values field named by
    ``_values`` as float64, both 1-d and of equal length. A class adds its
    own rule for its values in ``_check``.

    Every stamp lies in 0000-01-01T00:00:00..9999-12-31T23:59:59, the
    years whose text ``codec.scan_rows`` reads, so ``codec.stamps`` writes
    every stamp of a series, and every stamp taken from one, as text that
    reads back. NaT, which no order check can see in a series of one, and
    any other stamp are refused, naming the first. Stamps ascend, so a
    series that keeps the rule pays for comparing its first and last.

    ``days`` is the series' trading-day index, ``codec.runs`` of its dates:
    the distinct dates and where each begins, so days i..j-1 are
    ``[bounds[i], bounds[j])``. Series are immutable, so it is taken once.
    """

    _values = "values"

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[s]")
        vals = np.asarray(getattr(self, self._values), dtype=np.float64)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, self._values, vals)
        if ts.shape != vals.shape or ts.ndim != 1:
            raise ValueError(f"timestamps and {self._values} must be 1-d arrays of equal length")
        if len(ts) > 1 and not np.all(ts[1:] > ts[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        if len(ts) and not (_FIRST_STAMP <= ts[0] and ts[-1] <= _LAST_STAMP):  # False for NaT
            outside = ts[~((_FIRST_STAMP <= ts) & (ts <= _LAST_STAMP))]
            raise ValueError(f"timestamp {outside[0]} lies outside years 0000-9999")
        self._check(ts, vals)

    def __len__(self) -> int:
        return len(self.timestamps)

    def dates(self) -> np.ndarray:
        return self.timestamps.astype("datetime64[D]")

    @cached_property
    def days(self) -> tuple[np.ndarray, np.ndarray]:
        return codec.runs(self.dates())


@dataclass(frozen=True, eq=False)
class PriceSeries(Stamped):
    """Timestamped close prices for one instrument at one frequency.

    Timestamps are UTC-naive ``datetime64[s]``, strictly increasing; closes
    are finite and positive. Daily series carry no time-of-day component.
    Instances are immutable and safe to share between threads.
    """

    instrument_id: str
    frequency: Frequency
    timestamps: np.ndarray
    closes: np.ndarray
    _values = "closes"

    def _check(self, ts: np.ndarray, closes: np.ndarray) -> None:
        if not (np.all(np.isfinite(closes)) and np.all(closes > 0)):
            raise ValueError("closes must be finite and positive")
        if self.frequency is Frequency.DAILY:
            if not np.array_equal(ts, ts.astype("datetime64[D]").astype("datetime64[s]")):
                raise ValueError("daily series must not retain a time-of-day component")


class _Lines:
    """The text's lines, each with its line end, from line ``pos`` on.

    This is the input of ``csv.DictReader``, which pulls exactly one line
    at a time and returns a record once a line completes it; between
    records ``pos`` may be moved to any line.
    """

    def __init__(self, data: bytes):
        self.data = data
        self.buf = np.frombuffer(data, dtype=np.uint8)
        # Every line end, after a virtual one before the text and before
        # the text's end: line i runs from bounds[i] + 1 to bounds[i + 1].
        bounds = np.concatenate(([-1], np.flatnonzero(self.buf == 10), [len(data)]))
        if bounds[-2] == len(data) - 1:  # nothing after the last line end
            bounds = bounds[:-1]
        self.starts = bounds[:-1] + 1
        self.ends = bounds[1:]
        self.pos = 0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        if self.pos >= len(self.starts):
            raise StopIteration
        line = self.data[self.starts[self.pos] : self.ends[self.pos] + 1]
        self.pos += 1
        return line.decode("utf-8", "surrogatepass")


def _read(step):
    """``step()``, with the csv module's error raised as MalformedCsv."""
    try:
        return step()
    except csv.Error as exc:
        raise MalformedCsv(str(exc)) from None


def parse_csv(
    raw_text: str | bytes,
    frequency: Frequency,
    instrument_id: str,
    dt_col: str = "timestamp",
    close_col: str = "close",
) -> tuple[PriceSeries, Diagnostics]:
    r"""Parse raw CSV text into a normalized, ascending PriceSeries.

    Rows whose timestamp shape does not match the declared frequency, whose
    timestamp has invalid components, or whose price is non-positive or
    non-finite are dropped and counted in the returned diagnostics. Files
    mixing date-only and intraday stamps raise AmbiguousTimestampFormat;
    files with no valid rows raise EmptyInput; text the csv module cannot
    split into records raises MalformedCsv.

    ``raw_text`` is the text, or the bytes of a file as text mode would
    read them: they must be UTF-8 (else UnicodeDecodeError), and ``\r\n``
    and a lone ``\r`` end a line as ``\n`` does. Either way the parser
    reads the UTF-8 bytes.

    Under a ``dt_col,close_col`` header, lines of the fast shapes (see
    ``codec.scan_rows``) are decoded together by whole-column numpy work.
    ``csv`` only splits every other record; the records' stamps are decoded
    by the same ``codec.scan_rows``, and every row meets the same drop rule.
    """
    data = raw_text
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    else:
        if not data.isascii():  # ASCII is UTF-8; other bytes are decoded to check
            data.decode("utf-8")
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    lines = _Lines(data)
    reader = csv.DictReader(lines)
    header = _read(lambda: reader.fieldnames)
    if header is None:
        raise EmptyInput("no header row")
    if dt_col not in header or close_col not in header:
        raise EmptyInput(f"required columns {dt_col!r}/{close_col!r} not in header {header}")

    wanted = codec.DATE if frequency is Frequency.DAILY else codec.INTRADAY
    first = lines.pos
    shape, seconds, valid, prices = codec.scan_rows(
        lines.buf, lines.starts[first:], lines.ends[first:]
    )
    if header != [dt_col, close_col] or dt_col == close_col:
        shape[:] = codec.OTHER  # the fast shapes hold exactly these two columns
    counted = shape != codec.OTHER

    # Records outside the fast shapes, in file order. A record may span
    # lines (a quoted field holding a line end); lines it takes in after
    # its first are not counted. Its stamp and price are kept at its first
    # line, so that accepted rows stay in file order.
    at, stamp_lines, record_prices = [], [], []
    for i in np.flatnonzero(~counted).tolist():
        if first + i < lines.pos:
            continue
        lines.pos = first + i
        try:
            row = _read(reader.__next__)
        except StopIteration:
            break
        counted[i : lines.pos - first] = False
        at.append(i)
        stamp = (row.get(dt_col) or "").strip()
        stamp_lines.append(stamp.encode("utf-8", "surrogatepass") + b",1")
        try:
            record_prices.append(float((row.get(close_col) or "").strip()))
        except ValueError:
            record_prices.append(np.nan)

    # The records' stamps, as lines "<stamp>,1" for the codec. A quoted
    # stamp may hold a line end, so each line is bounded by its length.
    # Without records no line was taken into one, and nothing changes.
    if at:
        lengths = np.array([len(line) for line in stamp_lines], dtype=np.int64)
        ends = np.cumsum(lengths)
        shape[at], seconds[at], valid[at], _ = codec.scan_rows(
            np.frombuffer(b"".join(stamp_lines), dtype=np.uint8), ends - lengths, ends
        )
        prices[at] = record_prices
        counted[at] = True
        shape[~counted] = codec.OTHER

    accept = (shape == wanted) & valid & (prices > 0) & (prices < np.inf)
    dropped = int(counted.sum() - accept.sum())
    if np.any(shape == codec.DATE) and np.any(shape == codec.INTRADAY):
        raise AmbiguousTimestampFormat("file mixes date-only and intraday timestamps")
    if not accept.any():
        raise EmptyInput("no valid rows")

    ts_arr = seconds[accept].view("datetime64[s]")
    cl_arr = prices[accept]
    # Stamps that already strictly ascend need no sort and hold no
    # duplicate.
    if not np.all(ts_arr[1:] > ts_arr[:-1]):
        # Duplicate timestamps: the stable sort puts each stamp's first
        # occurrence first in its run; keep it, count the rest.
        order = np.argsort(ts_arr, kind="stable")
        ts_arr, bounds = codec.runs(ts_arr[order])
        cl_arr = cl_arr[order[bounds[:-1]]]
        dropped += len(order) - len(ts_arr)

    series = PriceSeries(instrument_id, frequency, ts_arr, cl_arr)
    return series, Diagnostics(dropped=dropped)


def parse_csv_file(
    path: str | Path,
    frequency: Frequency,
    instrument_id: str,
    dt_col: str = "timestamp",
    close_col: str = "close",
) -> tuple[PriceSeries, Diagnostics]:
    """``parse_csv`` of the file's bytes: the outcome of parsing the file
    read in text mode as UTF-8, without decoding it into a string."""
    data = Path(path).read_bytes()
    return parse_csv(data, frequency, instrument_id, dt_col=dt_col, close_col=close_col)


def serialize_csv(series: PriceSeries) -> str:
    """Render a PriceSeries in the normalized format: header 'timestamp,close',
    closes with 6 decimal places. parse_csv of the result reproduces the
    series whenever the closes are representable at that precision.

    A close whose text is zero (one below 5e-7) would read back as
    non-positive and be dropped, so a series holding one raises
    ``ValueError``, naming its lowest close and that close's stamp."""
    if f"{np.min(series.closes, initial=np.inf):.6f}" == "0.000000":  # monotone in the close
        i = series.closes.argmin()
        raise ValueError(f"close {series.closes[i]:g} at {series.timestamps[i]} prints as zero")
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
    the last open quote. Daily series are returned unchanged. Idempotent: truncated runs have length one and maximal runs
    are bounded by differing values on both sides.
    """
    if series.frequency is Frequency.DAILY:
        return series, Diagnostics()
    # A point stays when its run is no longer than ``run_length`` or when
    # it starts its run.
    _, bounds = codec.runs(series.closes)
    lengths = np.diff(bounds)
    keep = np.repeat(lengths <= run_length, lengths)
    keep[bounds[:-1]] = True

    removed = int(len(series) - keep.sum())
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
    days, bounds = series.days
    return PriceSeries(
        series.instrument_id,
        Frequency.DAILY,
        days.astype("datetime64[s]"),
        series.closes[bounds[1:] - 1],
    )
