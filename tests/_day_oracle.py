"""Trading-day selection as boolean masks and searches over every date.

These are the window, snapshot, aggregation and date-range functions as
they were written before every caller indexed the runs of the dates
(``codec.runs``). They are kept as the oracle that the index-based
versions must match: the same bounds, the same warning texts, the same
exceptions.
"""
from __future__ import annotations

import warnings

import numpy as np

from entroscope import EmptyInput, Frequency, OutOfRange, PriceSeries, ReturnSeries
from entroscope.entropy import (
    BinningSpec,
    PmfSnapshot,
    bin_returns,
    entropy_from_counts,
    velleman_bins,
)


def count_entropy(dist):
    """The entropy of a binned data window from its integer counts, the
    shares of ``support_count`` that its masses hold, through the exact
    fixed-point kernel."""
    counts = np.rint(dist.masses * dist.support_count).astype(np.int64)
    return float(entropy_from_counts(counts, dist.support_count))


def distinct_days(dates):
    first = np.ones(len(dates), dtype=bool)
    first[1:] = dates[1:] != dates[:-1]
    starts = np.flatnonzero(first)
    return dates[starts], np.diff(starts, append=len(dates))


def slice_window(returns, start_date, trading_days):
    if trading_days < 1:
        raise ValueError("trading_days must be positive")
    start = np.datetime64(start_date, "D")
    dates = returns.dates()
    if start > dates[-1]:
        raise OutOfRange(f"{start} is after the last observation")

    start_index = int(np.searchsorted(dates, start, side="left"))
    available, _ = distinct_days(dates[start_index:])
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
    return range(start_index, end_index)


def bracket_windows(returns, anchor_date, trading_days):
    anchor = np.datetime64(anchor_date, "D")
    dates = returns.dates()
    before_end = int(np.searchsorted(dates, anchor, side="left"))
    before_dates, _ = distinct_days(dates[:before_end])
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
    before = range(before_start, before_end)
    after = slice_window(returns, anchor, trading_days)
    return before, after


def pmf_snapshot(returns, day, preceding_days=14, n_bins=None):
    if preceding_days < 0:
        raise ValueError(f"preceding_days must be >= 0, got {preceding_days}")
    target = np.datetime64(day, "D")
    dates = returns.dates()
    day_mask = dates == target
    if not day_mask.any():
        raise OutOfRange(f"no observations on {target}")

    prior, _ = distinct_days(dates[: np.searchsorted(dates, target)])
    if len(prior) < preceding_days:
        raise OutOfRange(
            f"only {len(prior)} trading days precede {target} (requested {preceding_days})"
        )
    span_start_date = prior[-preceding_days] if preceding_days else target
    span_mask = (dates >= span_start_date) & (dates <= target)

    day_values = returns.values[day_mask]
    span_values = returns.values[span_mask]
    if n_bins is None:
        n_bins = velleman_bins(len(day_values))

    lo = float(span_values.min())
    hi = float(span_values.max())
    spec = BinningSpec(n_bins) if hi == lo else BinningSpec(n_bins, lo=lo, hi=hi)
    day_dist = bin_returns(day_values, spec)
    span_dist = bin_returns(span_values, spec)
    return PmfSnapshot(
        target, day_dist, span_dist, count_entropy(day_dist), count_entropy(span_dist)
    )


def aggregate_to_daily(series):
    if len(series) == 0:
        raise EmptyInput("nothing to aggregate")
    dates = series.dates()
    uniq, first_idx = np.unique(dates, return_index=True)
    last_idx = np.append(first_idx[1:], len(dates)) - 1
    return PriceSeries(
        series.instrument_id, Frequency.DAILY, uniq.astype("datetime64[s]"), series.closes[last_idx]
    )


def restrict_dates(returns, from_date, to_date):
    if from_date is None and to_date is None:
        return returns
    dates = returns.dates()
    mask = np.ones(len(returns), dtype=bool)
    if from_date is not None:
        mask &= dates >= np.datetime64(from_date, "D")
    if to_date is not None:
        mask &= dates <= np.datetime64(to_date, "D")
    if not mask.any():
        raise EmptyInput("no observations in requested date range")
    return ReturnSeries(
        returns.instrument_id,
        returns.frequency,
        returns.timestamps[mask],
        returns.values[mask],
    )


def bars_per_day(returns):
    _, counts = distinct_days(returns.dates())
    return int(np.bincount(counts).argmax())
