"""Descriptive statistics and before/after window comparisons.

Skewness is the adjusted Fisher-Pearson standardized third moment and
kurtosis is excess kurtosis, both with small-sample bias corrections;
variance uses the N-1 denominator and quartiles linear interpolation of
order statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .entropy import BinningSpec, velleman_bins, window_entropy
from .errors import DegenerateDenominator, TooShort
from .returns import ReturnSeries, WindowSlice, slice_values


class Metric(Enum):
    ENTROPY = "entropy"
    STD_DEV = "std_dev"
    KURTOSIS = "kurtosis"


@dataclass(frozen=True)
class SummaryStats:
    count: int
    mean: float
    variance: float
    std_dev: float
    minimum: float
    maximum: float
    q1: float
    median: float
    q3: float
    skewness: float
    kurtosis: float


@dataclass(frozen=True)
class BeforeAfterComparison:
    metric_name: str
    before: float
    after: float
    pct_difference: float


def _sample(values) -> np.ndarray:
    """``values`` as float64; TooShort when there are fewer than 4."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size < 4:
        raise TooShort(f"need at least 4 observations, got {vals.size}")
    return vals


def _std_dev(values) -> float:
    """The ``std_dev`` of ``summarize_values``, without the other statistics."""
    return math.sqrt(float(_sample(values).var(ddof=1)))


def summarize_values(values) -> SummaryStats:
    """Summary statistics of a raw sample. Requires at least 4 observations
    (the kurtosis correction needs N > 3). A constant sample reports zero
    skewness and zero excess kurtosis."""
    vals = _sample(values)
    n = vals.size

    mean = float(vals.mean())
    variance = float(vals.var(ddof=1))
    d = vals - mean
    m2 = float((d * d).mean())
    if m2 == 0.0:
        skewness = 0.0
        kurtosis = 0.0
    else:
        # standardize first so higher moments stay O(1) even for tiny spreads
        z = d / math.sqrt(m2)
        g1 = float((z * z * z).mean())
        skewness = g1 * math.sqrt(n * (n - 1)) / (n - 2)
        g2 = float((z * z * z * z).mean()) - 3.0
        kurtosis = ((n - 1) / ((n - 2) * (n - 3))) * ((n + 1) * g2 + 6.0)

    q1, median, q3 = np.quantile(vals, [0.25, 0.5, 0.75])
    return SummaryStats(
        count=int(n),
        mean=mean,
        variance=variance,
        std_dev=math.sqrt(variance),
        minimum=float(vals.min()),
        maximum=float(vals.max()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        skewness=float(skewness),
        kurtosis=float(kurtosis),
    )


def summarize(returns: ReturnSeries, window: WindowSlice) -> SummaryStats:
    return summarize_values(slice_values(returns, window))


def pct_difference(before: float, after: float) -> float:
    """Signed symmetric percentage difference (after - before) / midpoint,
    as a fraction. Reporting layers may take the magnitude."""
    denom = (before + after) / 2.0
    if denom == 0.0:
        raise DegenerateDenominator(f"midpoint of ({before}, {after}) is zero")
    return (after - before) / denom


def compare_windows(
    returns: ReturnSeries,
    before: WindowSlice,
    after: WindowSlice,
    metric: Metric,
    binning: BinningSpec | None = None,
) -> BeforeAfterComparison:
    """Evaluate one metric independently on two windows and attach the
    symmetric percentage difference.

    For the entropy metric the bin count defaults to the rule applied to
    the before-window length and is used for both windows. A metric that
    is not finite on either window (a variance past the float range) is
    refused with ValueError; one whose difference is undefined, with
    DegenerateDenominator naming the metric.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if metric is Metric.ENTROPY:
            if binning is None:
                binning = BinningSpec(velleman_bins(len(before)))
            b = window_entropy(returns, before, binning)
            a = window_entropy(returns, after, binning)
        elif metric is Metric.STD_DEV:
            b = _std_dev(slice_values(returns, before))
            a = _std_dev(slice_values(returns, after))
        else:
            b = summarize(returns, before).kurtosis
            a = summarize(returns, after).kurtosis
    if not (math.isfinite(b) and math.isfinite(a)):
        raise ValueError(f"{metric.value} is not finite: before={b:g}, after={a:g}")
    try:
        return BeforeAfterComparison(metric.value, b, a, pct_difference(b, a))
    except DegenerateDenominator as exc:
        raise DegenerateDenominator(f"{metric.value}: {exc}") from None
