"""Return computation and trading-day window selection.

All downstream entropy and statistics default to log returns; nominal
returns are kept for descriptive reporting. Windows are expressed in
trading days actually present in the data, not calendar days, so holiday
gaps shrink a window rather than shifting it. Every day window is a
slice of one index, the series' ``days`` (see ``ingest.Stamped``): the
distinct dates and where each begins, so a window of days i..j-1 is
``range(bounds[i], bounds[j])``. A window is such a ``range`` of indices
into a series; ``slice_values`` reads its values.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import OutOfRange, TooShort
from .ingest import Frequency, PriceSeries, Stamped


class ReturnKind(Enum):
    NOMINAL = "nominal"
    LOG = "log"


@dataclass(frozen=True, eq=False)
class ReturnSeries(Stamped):
    """Ordered return observations derived from a PriceSeries.

    Each value is timestamped with the later price of its pair, so a
    series of N prices yields N-1 returns. Timestamps are strictly
    increasing, as in the PriceSeries; window selection relies on it.
    """

    instrument_id: str
    frequency: Frequency
    timestamps: np.ndarray
    values: np.ndarray

    def _check(self, ts: np.ndarray, values: np.ndarray) -> None:
        if not np.all(np.isfinite(values)):
            raise ValueError("returns must be finite")


def slice_values(returns: ReturnSeries, window: range) -> np.ndarray:
    """The values of ``window``, a ``range`` of indices into ``returns``.
    ValueError for an empty, stepped or negative-start window, and for one
    that runs past the end of the series."""
    start, stop = window.start, window.stop
    if not (0 <= start < stop and window.step == 1):
        raise ValueError(f"invalid slice [{start}, {stop})")
    if stop > len(returns):
        raise ValueError(f"slice [{start}, {stop}) exceeds series length {len(returns)}")
    return returns.values[start:stop]


def _returns(series: PriceSeries, of_ratio) -> ReturnSeries:
    """``of_ratio(close[t+1] / close[t])`` of every pair of closes."""
    if len(series) < 2:
        raise TooShort("need at least 2 prices")
    with np.errstate(over="ignore", divide="ignore"):  # ReturnSeries refuses what overflows
        vals = of_ratio(series.closes[1:] / series.closes[:-1])
    return ReturnSeries(series.instrument_id, series.frequency, series.timestamps[1:], vals)


def log_returns(series: PriceSeries) -> ReturnSeries:
    """values[t] = ln(close[t+1] / close[t])."""
    return _returns(series, np.log)


def nominal_returns(series: PriceSeries) -> ReturnSeries:
    """values[t] = close[t+1] / close[t] - 1."""
    return _returns(series, lambda ratio: ratio - 1.0)


def bracket_windows(
    returns: ReturnSeries, anchor_date, trading_days: int
) -> tuple[range, range]:
    """The pair ``(before, after)`` of symmetric windows around an anchor
    date, as ``range``s: the last ``trading_days`` distinct dates strictly
    before it, and the first ``trading_days`` at or after it; for intraday
    series a window covers every bar of its dates. Both come from one
    search of the anchor among the series' days.

    In this order: ValueError when ``trading_days`` < 1; OutOfRange when
    no date precedes the anchor, as in an empty series; a warning when
    the before-side is truncated; OutOfRange when the anchor is after the
    last observation; a warning when the after-side is truncated.
    """
    if trading_days < 1:
        raise ValueError("trading_days must be positive")
    anchor = np.datetime64(anchor_date, "D")
    days, bounds = returns.days
    first = int(np.searchsorted(days, anchor, side="left"))  # days[first:] are at or after it
    if first == 0:
        raise OutOfRange(f"no data before {anchor}")
    if first < trading_days:
        warnings.warn(
            f"only {first} trading days before {anchor} (requested {trading_days})",
            stacklevel=2,
        )
    if first == len(days):
        raise OutOfRange(f"{anchor} is after the last observation")
    end = min(first + trading_days, len(days))
    if end - first < trading_days:
        warnings.warn(
            f"only {end - first} trading days available "
            f"at or after {anchor} (requested {trading_days})",
            stacklevel=2,
        )
    before = range(bounds[max(first - trading_days, 0)], bounds[first])
    return before, range(bounds[first], bounds[end])
