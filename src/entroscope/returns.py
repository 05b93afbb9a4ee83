"""Return computation and trading-day window selection.

All downstream entropy and statistics default to log returns; nominal
returns are kept for descriptive reporting. Windows are expressed in
trading days actually present in the data, not calendar days, so holiday
gaps shrink a window rather than shifting it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import OutOfRange, TooShort
from .ingest import Frequency, PriceSeries


class ReturnKind(Enum):
    NOMINAL = "nominal"
    LOG = "log"


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Ordered return observations derived from a PriceSeries.

    Each value is timestamped with the later price of its pair, so a
    series of N prices yields N-1 returns.
    """

    instrument_id: str
    kind: ReturnKind
    frequency: Frequency
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[s]")
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        if ts.shape != vals.shape or ts.ndim != 1:
            raise ValueError("timestamps and values must be 1-d arrays of equal length")
        if len(vals) and not np.all(np.isfinite(vals)):
            raise ValueError("returns must be finite")

    def __len__(self) -> int:
        return len(self.values)

    def dates(self) -> np.ndarray:
        return self.timestamps.astype("datetime64[D]")


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


def log_returns(series: PriceSeries) -> ReturnSeries:
    """values[t] = ln(close[t+1] / close[t])."""
    if len(series) < 2:
        raise TooShort("need at least 2 prices")
    vals = np.log(series.closes[1:] / series.closes[:-1])
    return ReturnSeries(
        series.instrument_id, ReturnKind.LOG, series.frequency, series.timestamps[1:], vals
    )


def nominal_returns(series: PriceSeries) -> ReturnSeries:
    """values[t] = close[t+1] / close[t] - 1."""
    if len(series) < 2:
        raise TooShort("need at least 2 prices")
    vals = series.closes[1:] / series.closes[:-1] - 1.0
    return ReturnSeries(
        series.instrument_id, ReturnKind.NOMINAL, series.frequency, series.timestamps[1:], vals
    )


def _as_date(value) -> np.datetime64:
    return np.datetime64(value, "D")


def slice_window(
    returns: ReturnSeries, start_date, trading_days: int, label: str = ""
) -> WindowSlice:
    """Window covering the first ``trading_days`` distinct calendar dates at
    or after ``start_date``; for intraday series the slice covers every bar
    of those dates.

    Raises OutOfRange when ``start_date`` lies beyond the last observation.
    When fewer than ``trading_days`` dates are available the slice is
    truncated and a warning is issued.
    """
    if trading_days < 1:
        raise ValueError("trading_days must be positive")
    start = _as_date(start_date)
    dates = returns.dates()
    if start > dates[-1]:
        raise OutOfRange(f"{start} is after the last observation")

    start_index = int(np.searchsorted(dates, start, side="left"))
    available = np.unique(dates[start_index:])
    if len(available) < trading_days:
        warnings.warn(
            f"only {len(available)} trading days available "
            f"at or after {start} (requested {trading_days})",
            stacklevel=2,
        )
        last_date = available[-1]
    else:
        last_date = available[trading_days - 1]
    end_index = int(np.searchsorted(dates, last_date, side="right"))
    return WindowSlice(start_index, end_index, label)


def bracket_windows(
    returns: ReturnSeries, anchor_date, trading_days: int
) -> tuple[WindowSlice, WindowSlice]:
    """Symmetric windows around an anchor date: the last ``trading_days``
    distinct dates strictly before it, and the first ``trading_days`` at or
    after it. Either side may be truncated (with a warning) when the data
    runs out."""
    anchor = _as_date(anchor_date)
    dates = returns.dates()
    before_dates = np.unique(dates[dates < anchor])
    if len(before_dates) == 0:
        raise OutOfRange(f"no data before {anchor}")
    if len(before_dates) < trading_days:
        warnings.warn(
            f"only {len(before_dates)} trading days before "
            f"{anchor} (requested {trading_days})",
            stacklevel=2,
        )
        first_date = before_dates[0]
    else:
        first_date = before_dates[-trading_days]
    before_start = int(np.searchsorted(dates, first_date, side="left"))
    before_end = int(np.searchsorted(dates, anchor, side="left"))
    before = WindowSlice(before_start, before_end, "before")
    after = slice_window(returns, anchor, trading_days, label="after")
    return before, after
