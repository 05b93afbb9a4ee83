"""The column-at-a-time row decoder that ``codec.scan_rows`` replaced.

It gathers every fixed-width byte column of the stamp and of the price
with its own ``take`` and decodes every line's date on its own, through
``np.datetime64`` of the date's text rather than the codec's month
arithmetic. It is kept as the oracle that the one-gather-per-field
decoder must match: the same shape on every line, and the same seconds,
validity and price bits on every line that has a fast shape.
"""
from __future__ import annotations

import numpy as np

from entroscope.codec import DATE, INTRADAY, MAX_PRICE_BYTES, OTHER

_STAMP = b"0000-00-00 00:00:00"  # '0' marks a digit position
_ZERO = np.uint8(ord("0"))
_POWERS_OF_TEN = np.array([float(10**k) for k in range(23)])  # the exact doubles
_EPOCH = np.datetime64("1970-01-01")


def _calendar(year: int, month: int, day: int) -> tuple[bool, int]:
    """Whether ``np.datetime64`` reads the date, and its day number: the
    first day of the month (clipped into 1..12) plus ``day - 1``, so that
    an invalid day such as 30 February still has one."""
    try:
        valid = not np.isnat(np.datetime64(f"{year:04d}-{month:02d}-{day:02d}"))
    except ValueError:
        valid = False
    first = np.datetime64(f"{year:04d}-{min(max(month, 1), 12):02d}", "D")
    return valid, int((first - _EPOCH).astype(np.int64)) + day - 1


def scan_rows(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Decode the lines ``buf[starts[i]:ends[i]]`` that have a fast shape.

    Returns ``(shape, seconds, valid, prices)``, one entry per line:
    ``shape`` is DATE, INTRADAY or OTHER (no fast shape; the other entries
    are then meaningless), ``seconds`` the stamp in seconds since the
    epoch, ``valid`` whether month, day (leap years included), hour <= 23,
    minute <= 59 and second <= 59 hold, exactly what ``np.datetime64``
    checks. Bytes are gathered one column at a time. Reads past the end of
    ``buf`` are clipped to its last byte: they happen only on a last line
    too short for a stamp shape, and a repeated byte cannot complete one.
    """
    # The stamp: digits accumulate into the current field, a separator
    # closes it. Position 10 is ',' after a date and ' ' inside a stamp.
    # A byte minus '0' wraps in uint8, so only the digits are <= 9.
    fields = []
    value = np.zeros(len(starts), dtype=np.int32)
    shaped = np.ones(len(starts), dtype=bool)
    for k, expected in enumerate(_STAMP + b","):
        column = buf.take(starts + k, mode="clip")
        if expected == ord("0"):
            digit = column - _ZERO
            shaped &= digit <= 9
            value = value * 10 + digit
            continue
        fields.append(value)
        value = np.zeros_like(value)
        if k == 10:
            date_shaped = shaped & (column == ord(","))
            shaped &= column == ord(" ")
        elif k == 13:  # HH:MM:SS or HH-MM-SS
            separator = column
            shaped &= (column == expected) | (column == ord("-"))
        elif k == 16:
            shaped &= column == separator
        else:
            shaped &= column == expected
    shape = np.where(date_shaped, DATE, np.where(shaped, INTRADAY, OTHER))

    # The price: a plain decimal of 1..MAX_PRICE_BYTES bytes, all digits
    # but at most one dot, with digits before and after it. Its digits make
    # the mantissa (Horner's rule; any other byte multiplies by 1 and adds
    # 0), and the digits after the dot its power of ten.
    price_start = starts + np.where(shape == INTRADAY, 20, 11)
    length = ends - price_start
    shape[(length < 1) | (length > MAX_PRICE_BYTES)] = OTHER
    width = int(length[shape != OTHER].max(initial=1))
    mantissa = np.zeros(len(starts))
    digits, dots, fraction = (np.zeros(len(starts), dtype=np.uint8) for _ in range(3))
    after_dot = np.zeros(len(starts), dtype=bool)
    for p in range(width):
        column = buf.take(price_start + p, mode="clip")
        inside = p < length
        digit = column - _ZERO
        is_digit = (digit <= 9) & inside
        dot = (column == ord(".")) & inside
        digits += is_digit
        dots += dot
        after_dot |= dot
        fraction += is_digit & after_dot
        mantissa *= is_digit * np.uint8(9) + np.uint8(1)
        mantissa += digit * is_digit
    plain = (digits + dots == length) & (dots <= 1) & (digits > fraction) & (fraction >= dots)
    shape[~plain] = OTHER
    prices = mantissa / _POWERS_OF_TEN.take(fraction, mode="clip")
    inexact = (shape != OTHER) & ((mantissa >= 2.0**53) | (fraction >= len(_POWERS_OF_TEN)))
    for i in np.flatnonzero(inexact).tolist():
        prices[i] = float(buf[price_start[i] : ends[i]].tobytes())

    # The date, line by line through numpy's calendar, on the lines with
    # a fast shape only: the fields of the others are garbage.
    year, month, day, hour, minute, second = fields
    intraday = shape == INTRADAY
    on_clock = ~intraday | (hour <= 23) & (minute <= 59) & (second <= 59)
    clock = np.where(intraday, hour * 3600 + minute * 60 + second, 0)
    on_calendar = np.zeros(len(starts), dtype=bool)
    days = np.zeros(len(starts), dtype=np.int64)
    for i in np.flatnonzero(shape != OTHER).tolist():
        on_calendar[i], days[i] = _calendar(int(year[i]), int(month[i]), int(day[i]))
    return shape, days * 86400 + clock, on_calendar & on_clock, prices
