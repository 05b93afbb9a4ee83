"""Return computation and trading-day window selection.

All downstream entropy and statistics default to log returns; nominal
returns are kept for descriptive reporting. Windows are expressed in
trading days actually present in the data, not calendar days, so holiday
gaps shrink a window rather than shifting it. Every day window is a
slice of one index, the series' ``days`` (see ``ingest.Stamped``): the
distinct dates and where each begins, so a window of days i..j-1 is
``[bounds[i], bounds[j])``.
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
    kind: ReturnKind
    frequency: Frequency
    timestamps: np.ndarray
    values: np.ndarray

    def _check(self, ts: np.ndarray, values: np.ndarray) -> None:
        if not np.all(np.isfinite(values)):
            raise ValueError("returns must be finite")


@dataclass(frozen=True)
class WindowSlice:
    """Half-open index range [start_index, end_index) into a ReturnSeries."""

    start_index: int
    end_index: int
    label: str = ""

    def __post_init__(self):
        if not (0 <= self.start_index < self.end_index):
            raise ValueError(f"invalid slice [{self.start_index}, {self.end_index})")

    def __len__(self) -> int:
        return self.end_index - self.start_index


def slice_values(returns: ReturnSeries, window: WindowSlice) -> np.ndarray:
    if window.end_index > len(returns):
        raise ValueError(
            f"slice [{window.start_index}, {window.end_index}) exceeds series length {len(returns)}"
        )
    return returns.values[window.start_index : window.end_index]


def _returns(series: PriceSeries, kind: ReturnKind, of_ratio) -> ReturnSeries:
    """``of_ratio(close[t+1] / close[t])`` of every pair of closes, as
    returns of ``kind``."""
    if len(series) < 2:
        raise TooShort("need at least 2 prices")
    with np.errstate(over="ignore", divide="ignore"):  # ReturnSeries refuses what overflows
        vals = of_ratio(series.closes[1:] / series.closes[:-1])
    return ReturnSeries(series.instrument_id, kind, series.frequency, series.timestamps[1:], vals)


def log_returns(series: PriceSeries) -> ReturnSeries:
    """values[t] = ln(close[t+1] / close[t])."""
    return _returns(series, ReturnKind.LOG, np.log)


def nominal_returns(series: PriceSeries) -> ReturnSeries:
    """values[t] = close[t+1] / close[t] - 1."""
    return _returns(series, ReturnKind.NOMINAL, lambda ratio: ratio - 1.0)


def slice_window(
    returns: ReturnSeries, start_date, trading_days: int, label: str = ""
) -> WindowSlice:
    """Window covering the first ``trading_days`` distinct calendar dates at
    or after ``start_date``; for intraday series the slice covers every bar
    of those dates.

    Raises OutOfRange when ``start_date`` lies beyond the last observation,
    or the series has none.
    When fewer than ``trading_days`` dates are available the slice is
    truncated and a warning is issued.
    """
    if trading_days < 1:
        raise ValueError("trading_days must be positive")
    start = np.datetime64(start_date, "D")
    days, bounds = returns.days
    first = int(np.searchsorted(days, start, side="left"))
    if first == len(days):  # no day at or after ``start``, as in an empty series
        raise OutOfRange(f"{start} is after the last observation")
    end = min(first + trading_days, len(days))
    if end - first < trading_days:
        warnings.warn(
            f"only {end - first} trading days available "
            f"at or after {start} (requested {trading_days})",
            stacklevel=2,
        )
    return WindowSlice(int(bounds[first]), int(bounds[end]), label)


def bracket_windows(
    returns: ReturnSeries, anchor_date, trading_days: int
) -> tuple[WindowSlice, WindowSlice]:
    """Symmetric windows around an anchor date: the last ``trading_days``
    distinct dates strictly before it, and the first ``trading_days`` at or
    after it. Either side may be truncated (with a warning) when the data
    runs out."""
    if trading_days < 1:
        raise ValueError("trading_days must be positive")
    anchor = np.datetime64(anchor_date, "D")
    days, bounds = returns.days
    end = int(np.searchsorted(days, anchor, side="left"))
    if end == 0:
        raise OutOfRange(f"no data before {anchor}")
    if end < trading_days:
        warnings.warn(
            f"only {end} trading days before {anchor} (requested {trading_days})",
            stacklevel=2,
        )
    before = WindowSlice(int(bounds[max(end - trading_days, 0)]), int(bounds[end]), "before")
    after = slice_window(returns, anchor, trading_days, label="after")
    return before, after
