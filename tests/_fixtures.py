"""Shared builders for test series."""
from __future__ import annotations

import numpy as np

from entroscope import Frequency, PriceSeries, ReturnKind, ReturnSeries


def make_daily(closes, start="2025-01-02", instrument="test") -> PriceSeries:
    ts = (np.datetime64(start, "D") + np.arange(len(closes))).astype("datetime64[s]")
    return PriceSeries(instrument, Frequency.DAILY, ts, np.asarray(closes, dtype=float))


def intraday_timestamps(n_bars, bars_per_day, start="2025-01-02") -> np.ndarray:
    # 5-minute bars from 09:30: at most 174 fit before midnight.
    if 9 * 60 + 30 + 5 * bars_per_day > 24 * 60:
        raise ValueError(f"{bars_per_day} bars from 09:30 run past midnight")
    days = np.datetime64(start, "D") + np.arange(-(-n_bars // bars_per_day))
    offsets = (9 * 60 + 30 + 5 * np.arange(bars_per_day)) * np.timedelta64(60, "s")
    grid = (days.astype("datetime64[s]")[:, None] + offsets[None, :]).ravel()
    return grid[:n_bars]


def make_intraday(closes, bars_per_day=78, start="2025-01-02", instrument="test") -> PriceSeries:
    ts = intraday_timestamps(len(closes), bars_per_day, start)
    return PriceSeries(instrument, Frequency.FIVE_MINUTE, ts, np.asarray(closes, dtype=float))


def make_returns(
    values,
    start="2025-01-02",
    frequency=Frequency.DAILY,
    bars_per_day=78,
    kind=ReturnKind.LOG,
    instrument="test",
) -> ReturnSeries:
    if frequency is Frequency.DAILY:
        ts = (np.datetime64(start, "D") + np.arange(len(values))).astype("datetime64[s]")
    else:
        ts = intraday_timestamps(len(values), bars_per_day, start)
    return ReturnSeries(instrument, kind, frequency, ts, np.asarray(values, dtype=float))
