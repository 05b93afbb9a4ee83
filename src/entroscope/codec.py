r"""Byte-level codec for the package's CSV text: whole-column numpy kernels.

Reading. ``scan_rows`` decodes, by array arithmetic, every line of the
shape ``YYYY-MM-DD,P``, ``YYYY-MM-DD HH:MM:SS,P`` or
``YYYY-MM-DD HH-MM-SS,P`` (one separator throughout the time) where ``P``
is a plain decimal (``\d+(\.\d+)?``, at most ``MAX_PRICE_BYTES`` bytes).
Each line's bytes are gathered once per field, the stamp and the price,
into a fixed-width byte matrix with one contiguous row per byte position.
A date is decoded once per run of lines with equal date bytes; the clock
and the price are decoded per line. The stamp's fields become seconds,
and its validity, through numpy's calendar: the date's month as
``datetime64[M]`` gives the month's first day and, with the next month's,
its length. The price is its digits as one integer mantissa
over a power of ten. A mantissa below 2**53 (so every mantissa of at most
15 digits) and a power of at most 10**22 are exact doubles, so one
division gives the correctly rounded value, the double ``float`` gives
(Clinger's fast path). A larger mantissa, or more than 22 digits after the
dot, is converted by ``float`` one row at a time. Any other line is shaped
OTHER and left to the caller; ``ingest`` splits such records with ``csv``
and decodes their stamps here too, so there is one stamp decoder.

Writing. ``fixed6``, ``integers``, ``stamps`` and ``text`` render arrays
as byte matrices with one text row per value; NUL bytes in them are
padding. Decimal digits come two at a time from a table of the pairs
"00".."99", one division by 100 per pair. ``stamps`` renders a date once
per run of equal days, so the bars of one trading day share one
conversion to ``datetime64[M]``, which gives the year, month and day,
and copies a clock from a table of every second of the day, rendered once
per process; so dates and clocks are each rendered once per distinct
value. It is given stamps of a series, which ``ingest.Stamped`` keeps in
the years 0000..9999 that ``scan_rows`` reads, so every stamp it writes
reads back. ``fixed6`` is the one ``%.6f`` renderer. ``columns`` lays
such matrices and constant separators side by side, broadcasting their
leading axes, and ``rows`` returns the text of all rows with the padding
dropped.

Grouping. ``runs`` is the package's one index of runs of equal
consecutive values: each run's value and where it begins. Trading days
are the runs of a series' dates, months the runs of the months of its
anchors' days, and cleaning reads repeated stamps and repeated closes
from it.
"""
from __future__ import annotations

import functools
import mmap

import numpy as np

MAX_PRICE_BYTES = 32

# Rows per block of a writer: the byte matrices and temporaries of one
# block stay small whatever the length of the series.
BLOCK_ROWS = 16384

# Shape codes of ``scan_rows``.
OTHER, DATE, INTRADAY = 0, 1, 2

_ZERO = np.uint8(ord("0"))


# The powers of ten that are exact doubles (see "Reading" above).
_POWERS_OF_TEN = np.array([float(10**k) for k in range(23)])

def runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs of equal consecutive ``values``: each run's value and where
    each begins. Run i is ``values[bounds[i]:bounds[i + 1]]`` and
    ``bounds[-1] == len(values)``; an empty input gives no runs and
    ``bounds == [0]``. On ascending values the runs are the distinct
    values, found without a sort."""
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(first)
    return values[starts], np.append(starts, len(values))


def _gather(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes from each of ``starts`` on, as a (width, lines)
    matrix whose row k holds byte k of every line.

    Every line's bytes are copied at once, as one item of a strided void
    view with one item per byte offset; the matrix is then transposed once,
    so that each row is contiguous. Reads past the end of ``buf`` are
    clipped to its last byte, one index per byte, on the few lines that
    start within ``width`` bytes of its end."""
    fits = len(buf) - width + 1  # offsets whose ``width`` bytes lie in ``buf``
    if fits > 0:
        windows = np.ndarray((fits,), f"V{width}", buffer=buf, strides=(1,))
        lines = windows[np.minimum(starts, fits - 1)].view(np.uint8).reshape(-1, width)
    else:
        lines = np.empty((len(starts), width), dtype=np.uint8)
    tail = np.flatnonzero(starts >= fits)
    lines[tail] = buf.take(starts[tail, None] + np.arange(width), mode="clip")
    return lines.T.copy()


def _numbers(rows: np.ndarray, pattern: bytes):
    """The numbers spelled by the digit positions of ``pattern`` ('0') in
    byte rows laid out as ``pattern``, split at its other positions, in
    uint16; and whether every digit position holds a digit. A byte minus
    '0' wraps in uint8, so only the digits are <= 9; the numbers of other
    bytes are meaningless."""
    digit = rows - _ZERO
    at = np.frombuffer(pattern, dtype=np.uint8) == ord("0")
    numbers, value = [], None
    for d, is_digit in zip(digit, at):
        if not is_digit:
            numbers.append(value)
            value = None
        else:
            value = d.astype(np.uint16) if value is None else value * 10 + d
    return numbers + [value], (digit[at] <= 9).all(axis=0)


def scan_rows(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Decode the lines ``buf[starts[i]:ends[i]]`` that have a fast shape.

    Returns ``(shape, seconds, valid, prices)``, one entry per line:
    ``shape`` (uint8) is DATE, INTRADAY or OTHER (no fast shape; the other
    entries are then meaningless), ``seconds`` the stamp in seconds since
    the epoch, ``valid`` whether month, day (leap years included), hour
    <= 23, minute <= 59 and second <= 59 hold, exactly what
    ``np.datetime64`` checks.

    Each line's bytes are gathered once for the stamp and once for the
    price. A date is decoded once per run of lines with equal date bytes
    (the bars of one trading day) and repeated over its run: its day
    number is the first day of its month, as numpy's ``datetime64[M]``
    gives it, plus the day - 1, also for a day past the month's end (30
    February is 2 March, though invalid). The clock and the price are
    decoded per line. Reads past the end of ``buf`` are clipped to its
    last byte: they happen only on a last line too short for a stamp shape
    or its price width, and a repeated byte cannot complete a shape.
    """
    n = len(starts)
    stamp = _gather(buf, starts, 20)  # "YYYY-MM-DD HH:MM:SS,"

    # The date, once per run of equal date bytes. The runs are scanned
    # here, not by ``runs``: a 1-D key per line would add a transposed copy
    # of the (10, lines) date bytes to the parse hot path. The month index
    # since 1970-01, taken in int64 (the uint16 year would wrap), is
    # numpy's ``datetime64[M]``; garbage months are clipped into 1..12.
    new_date = np.ones(n + 1, dtype=bool)  # the last entry closes the last run
    np.any(stamp[:10, 1:] != stamp[:10, :-1], axis=0, out=new_date[1:n])
    firsts = np.flatnonzero(new_date)
    date = stamp[:10, firsts[:-1]]
    (year, month, day), dated = _numbers(date, b"0000-00-00")
    dated &= (date[4] == ord("-")) & (date[7] == ord("-"))
    months = year.astype(np.int64) * 12 + np.clip(month, 1, 12) - (1970 * 12 + 1)
    months = months.view("datetime64[M]")
    first = months.astype("datetime64[D]")
    length = ((months + 1).astype("datetime64[D]") - first).view(np.int64)
    on_calendar = (month >= 1) & (month <= 12) & (day >= 1) & (day <= length)
    days = first.view(np.int64) + day - 1
    lengths = firsts[1:] - firsts[:-1]
    dated, on_calendar, day_seconds = (
        np.repeat(a, lengths) for a in (dated, on_calendar, days * 86400)
    )

    # The clock, per line: position 10 is ',' after a date and ' ' before
    # a time of HH:MM:SS or HH-MM-SS.
    (hour, minute, second), timed = _numbers(stamp[11:19], b"00:00:00")
    separator = stamp[13]
    timed &= (
        dated & (stamp[10] == ord(" ")) & (stamp[19] == ord(",")) & (stamp[16] == separator)
        & ((separator == ord(":")) | (separator == ord("-")))
    )
    shape = np.full(n, OTHER, dtype=np.uint8)
    shape[dated & (stamp[10] == ord(","))] = DATE
    shape[timed] = INTRADAY

    # The price: a plain decimal of 1..MAX_PRICE_BYTES bytes, all digits
    # but at most one dot, with digits before and after it. Its digits make
    # the mantissa by Horner's rule, two bytes per step (any other byte
    # multiplies by 1 and adds 0), and the digits after the dot its power
    # of ten. Lengths outside 1..MAX_PRICE_BYTES are shaped OTHER, so the
    # others fit in uint8.
    price_start = starts + np.where(timed, 20, 11)
    length = ends - price_start
    shape[(length < 1) | (length > MAX_PRICE_BYTES)] = OTHER
    span = length.astype(np.uint8)
    width = int(np.max(span * (shape != OTHER), initial=1))
    price = _gather(buf, price_start, width + width % 2)
    inside = np.arange(len(price), dtype=np.uint8)[:, None] < span
    digit = price - _ZERO
    is_digit = (digit <= 9) & inside
    dot = (price == ord(".")) & inside
    digits = is_digit.sum(axis=0, dtype=np.uint8)
    dots = dot.sum(axis=0, dtype=np.uint8)
    at_dot = (dot * np.arange(len(price), dtype=np.uint8)[:, None]).sum(axis=0, dtype=np.uint8)
    fraction = (span - at_dot - np.uint8(1)) * dots  # digits after a lone dot
    scale = is_digit * np.uint8(9) + np.uint8(1)
    digit *= is_digit
    mantissa = np.zeros(n)
    for p in range(0, len(price), 2):
        mantissa *= scale[p] * scale[p + 1]
        mantissa += digit[p] * scale[p + 1] + digit[p + 1]
    plain = (digits + dots == span) & (dots <= 1) & (digits > fraction) & (fraction >= dots)
    shape[~plain] = OTHER
    prices = mantissa / _POWERS_OF_TEN.take(fraction, mode="clip")
    inexact = (shape != OTHER) & ((mantissa >= 2.0**53) | (fraction >= len(_POWERS_OF_TEN)))
    for i in np.flatnonzero(inexact).tolist():
        prices[i] = float(buf[price_start[i] : ends[i]].tobytes())

    intraday = shape == INTRADAY
    on_clock = ~intraday | (hour <= 23) & (minute <= 59) & (second <= 59)
    clock = (hour.astype(np.int32) * 3600 + minute * 60 + second) * intraday
    return shape, day_seconds + clock, on_calendar & on_clock, prices


# "00".."99" as uint16: element i holds the two ASCII digits of i in
# memory order, so a uint16 array of them views as the digit bytes.
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint16)


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """Zero-padded decimal digits of non-negative integers of at most
    ``width`` digits, one row each; two digits per table lookup."""
    pairs = np.empty((len(values), (width + 1) // 2), dtype=np.uint16)
    rest = values.astype(np.int32 if width <= 8 else np.int64)
    for k in range(pairs.shape[1] - 1, 0, -1):
        quotient = rest // 100  # a division by a constant; % is slower
        pairs[:, k] = _PAIRS.take(rest - quotient * 100)
        rest = quotient
    pairs[:, 0] = _PAIRS.take(rest)
    return pairs.view(np.uint8)[:, width % 2 :]


def integers(values) -> np.ndarray:
    """``str(v)`` of non-negative integers, right-aligned in NUL padding."""
    values = np.asarray(values, dtype=np.int64)
    width = len(str(int(values.max()))) if len(values) else 1
    out = _digits(values, width)
    for p in range(1, width):
        out[values < 10**p, width - 1 - p] = 0
    return out


def text(strings: list[str]) -> np.ndarray:
    """The UTF-8 bytes of strings without NUL, left-aligned in NUL
    padding."""
    array = np.array([s.encode("utf-8") for s in strings], dtype=bytes)
    return array.view(np.uint8).reshape(len(array), array.itemsize)


def fixed6(values) -> np.ndarray:
    """``f"{v:.6f}"`` of every value.

    ``rint(|v|·1e6)`` is the correctly rounded digit string whenever
    ``|v|·1e6`` lies farther from a rounding tie (an odd multiple of 0.5)
    than one unit in its last place, which bounds the error of the product.
    Values nearer a tie, non-finite values and values of 2**52 millionths
    or more are formatted by Python instead.
    """
    values = np.asarray(values, dtype=np.float64)
    # Past ~1.8e302 the product overflows to inf, which goes to Python.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(values) * 1e6
        exact = (scaled < 2.0**52) & (
            np.abs(scaled - np.floor(scaled) - 0.5) > np.spacing(scaled)
        )
    whole, frac = np.divmod(np.rint(np.where(exact, scaled, 0.0)).astype(np.int64), 10**6)
    fields = [integers(whole), b".", _digits(frac, 6)]
    negative = np.signbit(values)
    if negative.any():
        fields.insert(0, np.where(negative, ord("-"), 0).astype(np.uint8)[:, None])
    out = columns(fields)
    if not exact.all():
        python = np.flatnonzero(~exact)
        patch = text([f"{v:.6f}" for v in values[python].tolist()])
        if patch.shape[1] > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, patch.shape[1] - out.shape[1])))
        out[python] = 0
        out[python, : patch.shape[1]] = patch
    return out


@functools.cache
def _clocks() -> np.ndarray:
    """`` HH:MM:SS`` of every second of the day, one row each (86,400 rows
    of 9 bytes), built once per process.

    The table has its own anonymous mapping, off the heap: a heap block
    kept for the life of the process would stop the heap from shrinking
    past it, and on ``onset-bar`` that kept about 1 MiB more resident at
    the peak."""
    pairs = _digits(np.arange(60), 2)  # "00".."59"
    table = np.frombuffer(mmap.mmap(-1, 86400 * 9), dtype=np.uint8).reshape(24, 60, 60, 9)
    table[:] = columns([b" ", pairs[:24, None, None], b":", pairs[:, None], b":", pairs])
    table.flags.writeable = False  # shared by every call
    return table.reshape(86400, 9)


def stamps(timestamps, daily: bool) -> np.ndarray:
    """``YYYY-MM-DD`` (``daily``) or ``YYYY-MM-DD HH:MM:SS`` of each
    timestamp, one in 0000-01-01 00:00:00..9999-12-31 23:59:59, as every
    stamp of a series is (``ingest.Stamped``).

    A date is rendered once per run of equal days (``runs``; the bars of
    one trading day) and repeated over its run: the day's ``datetime64[M]``
    month gives the year and month, and the day is the distance from the
    month's first day. The clock is the second of the day's row of
    ``_clocks``."""
    seconds = np.asarray(timestamps, dtype="datetime64[s]").view(np.int64)
    days, second_of_day = np.divmod(seconds, 86400)
    run_days, bounds = runs(days)
    dates = run_days.view("datetime64[D]")
    months = dates.astype("datetime64[M]")
    year, month = np.divmod(months.view(np.int64), 12)
    year += 1970
    day = (dates - months).view(np.int64) + 1
    out = columns([_digits(year, 4), b"-", _digits(month + 1, 2), b"-", _digits(day, 2)])
    lengths = np.diff(bounds)
    out = np.repeat(out, lengths, axis=0)
    if not daily:
        out = columns([out, _clocks().take(second_of_day, axis=0)])
    return out


def columns(fields) -> np.ndarray:
    """Byte arrays and bytes constants side by side along the last axis.
    The leading axes of the arrays broadcast against each other, and a
    constant is repeated on every row."""
    arrays = [np.frombuffer(f, dtype=np.uint8) if isinstance(f, bytes) else f for f in fields]
    shape = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
    out = np.empty(shape + (sum(a.shape[-1] for a in arrays),), dtype=np.uint8)
    at = 0
    for a in arrays:
        out[..., at : at + a.shape[-1]] = a
        at += a.shape[-1]
    return out


def rows(*fields) -> bytes:
    """The text of rows laid out as ``fields``: byte arrays whose leading
    axes broadcast to one text row per element, and bytes constants shared
    by every row. NUL padding is dropped."""
    return columns(fields).tobytes().replace(b"\0", b"")
