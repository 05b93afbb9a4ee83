"""Binned Shannon entropy of return windows.

Returns in a window are partitioned into ``n_bins`` evenly spaced
intervals; the entropy of the resulting interval probability masses,

    H = -sum_i p_i * ln(p_i)        (0 * ln 0 = 0, natural log)

measures how diffused the realized outcomes are: high when many bins carry
comparable mass, low when mass concentrates in few bins. 0 <= H <= ln(n_bins).

Bins are half-open [lo + i*w, lo + (i+1)*w) with the last bin closed on
the right, so the maximum value is always counted. The bin count comes
from the rule n = ceil(2*sqrt(N)) applied once to a baseline window and
is then held fixed across an analysis run; the bin *range* is either
recomputed per window (default, scale-free) or fixed for cross-window
mass comparability.

The entropy of a data window (``window_entropy``, ``pmf_snapshot``, and
every spectrum) comes from its integer bin counts through the exact
fixed-point sum of ``entropy_from_counts``, so windows with the same
counts in other bins have the same bits. ``shannon_entropy`` is the
plain sum over the masses of any distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindow, OutOfRange
from .returns import ReturnSeries, WindowSlice, slice_values


def velleman_bins(sample_count: int) -> int:
    """Bin count n = ceil(2 * sqrt(N)), at least 1."""
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    return max(1, math.ceil(2.0 * math.sqrt(sample_count)))


@dataclass(frozen=True)
class BinningSpec:
    """Evenly spaced binning. Both bounds None selects a per-window range
    (min/max of each binned sample); both set selects a fixed range."""

    n_bins: int
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if not 1 <= self.n_bins <= 2**53:  # bin positions are taken in float64
            raise ValueError(f"n_bins must be in 1..2**53, got {self.n_bins}")
        if (self.lo is None) != (self.hi is None):
            raise ValueError("lo and hi must be set together")
        if self.lo is not None and not self.hi > self.lo:
            raise ValueError("fixed range requires hi > lo")

    @classmethod
    def spanning(cls, values, n_bins: int) -> BinningSpec:
        """A range fixed over the min..max of ``values``, so that the masses
        of all their windows compare; per-window when the values are
        constant, since no fixed range spans them."""
        lo, hi = float(np.min(values)), float(np.max(values))
        return cls(n_bins) if hi == lo else cls(n_bins, lo=lo, hi=hi)

    @property
    def is_fixed(self) -> bool:
        return self.lo is not None


@dataclass(frozen=True, eq=False)
class BinnedDistribution:
    """Interval probability masses over the resolved bin range.

    ``masses`` sums to 1; a degenerate all-equal sample under per-window
    ranging collapses to a single bin of mass 1. ``clamped_count`` reports
    values outside a fixed range that were clamped into the end bins.
    """

    spec: BinningSpec
    lo: float
    hi: float
    masses: np.ndarray
    support_count: int
    clamped_count: int = 0

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=np.float64)
        object.__setattr__(self, "masses", m)
        if self.support_count < 1:
            raise ValueError("support_count must be >= 1")
        if np.any(m < -1e-12) or np.any(m > 1 + 1e-12) or abs(float(m.sum()) - 1.0) > 1e-12:
            raise ValueError("masses must be a probability vector")

    @property
    def n_bins(self) -> int:
        return len(self.masses)

    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_bins + 1)


def bin_indices(values: np.ndarray, n_bins: int, lo: float, hi: float) -> np.ndarray:
    """Bin index of every value over ``n_bins`` evenly spaced bins on
    [lo, hi]; values outside the range are clamped into the end bins.

    The scaled position is clamped to [0, n_bins - 1] in float before the
    int64 cast, so a value far outside the range cannot overflow the cast;
    truncating a position in that interval equals ``floor``."""
    pos = (values - lo) / (hi - lo) * n_bins
    np.minimum(pos, n_bins - 1, out=pos)
    np.maximum(pos, 0, out=pos)
    return pos.astype(np.int64)


def bin_returns(values, spec: BinningSpec) -> BinnedDistribution:
    """Assign values to evenly spaced bins and normalize counts to masses.

    With a fixed range, out-of-range values are clamped into the end bins
    and counted in ``clamped_count``. With a per-window range an all-equal
    sample yields the degenerate single-bin distribution.
    """
    return _bin(values, spec)[0]


def _bin(values, spec: BinningSpec) -> tuple[BinnedDistribution, np.ndarray]:
    """``bin_returns(values, spec)`` and the integer bin counts whose
    shares are its masses."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise EmptyWindow("cannot bin an empty window")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")

    clamped = 0
    if spec.is_fixed:
        lo, hi = float(spec.lo), float(spec.hi)
        clamped = int(np.count_nonzero((vals < lo) | (vals > hi)))
    else:
        lo = float(vals.min())
        hi = float(vals.max())
        if hi == lo:
            counts = np.array([vals.size])
            return BinnedDistribution(spec, lo, hi, np.array([1.0]), int(vals.size)), counts

    n = spec.n_bins
    counts = np.bincount(bin_indices(vals, n, lo, hi), minlength=n)
    masses = counts / vals.size
    return BinnedDistribution(spec, lo, hi, masses, int(vals.size), clamped), counts


def entropy_from_counts(counts: np.ndarray, totals) -> np.ndarray:
    """Shannon entropy over the last axis of an integer count array with p
    = counts / totals, as H = ln T - sum(c ln c) / T (0 ln 0 = 0);
    ``totals`` broadcasts against the other axes.

    c ln c comes from the fixed-point table of ``_c_log_c_table`` over
    0..max(totals), built once per call, and is summed exactly in int64,
    so the sum does not depend on the order or grouping of its terms; H =
    (F(T) - S) * 2**-q / T (``_entropy_from_sums``). A window whose values
    share one bin has S = F(T) and entropy exactly 0."""
    totals = np.asarray(totals)
    table, q = _c_log_c_table(int(totals.max()))
    return _entropy_from_sums(table.take(counts).sum(axis=-1), totals, table, q)


def _c_log_c_table(max_total: int) -> tuple[np.ndarray, int]:
    """F(c) = c ln c rounded at scale 2**q, as int64 for c in 0..max_total,
    and q: the largest scale with max_total ln max_total * 2**q < 2**62.

    A window of total T <= max_total has 0 <= sum(c ln c) <= T ln T, so its
    sum S of table terms stays below 2**62 plus one per bin: no overflow.
    F(0) = F(1) = 0 exactly; every other term is c ln c in float64 rounded
    to a multiple of 2**-q. With k bins holding two or more values, H is
    off by at most (k + 1) * 2**-(q + 1) / T from the float64 terms, and
    2**-(q + 1) < max_total ln max_total / 2**62: 3.0e-12 for a max_total
    of 10**6, 1.7e-16 for 156. The float64 terms themselves err by a few
    units in the last place, as in the float formula."""
    top = max_total * math.log(max_total) if max_total > 1 else 0.0
    q = 62 - math.frexp(top)[1]  # top < 2**frexp(top)[1]
    c = np.arange(max_total + 1, dtype=np.float64)
    return np.rint(np.ldexp(c * np.log(np.maximum(c, 1.0)), q)).astype(np.int64), q


def _entropy_from_sums(sums: np.ndarray, totals, table: np.ndarray, q: int) -> np.ndarray:
    """H = (F(T) - S) * 2**-q / T from window sums S of ``_c_log_c_table``
    terms and window totals T. F(T) - S is exact; the result is rounded
    once converting it to float64 (when it exceeds 2**53) and once in the
    division, so equal sums give equal bits."""
    return np.ldexp((table.take(totals) - sums).astype(np.float64), -q) / totals


def shannon_entropy(dist: BinnedDistribution) -> float:
    """-sum(p ln p) over the masses of any distribution, summed in bin
    order: two windows with the same counts in other bins may differ in
    the last bit. ``window_entropy`` and ``pmf_snapshot`` take a data
    window's entropy from its integer counts instead."""
    p = dist.masses
    # 0.0 - S rather than -S: a one-bin distribution gives 0.0, not -0.0.
    return float(0.0 - (p * np.log(p, out=np.zeros_like(p), where=p > 0)).sum())


def _count_entropy(counts: np.ndarray) -> float:
    """The entropy of one window's integer bin counts, through the
    fixed-point kernel of spectra: exact sums, so the same counts in any
    bins give the same bits, and so does ``spectra_for_series`` on that
    window alone."""
    return float(entropy_from_counts(counts, counts.sum()))


def window_entropy(returns: ReturnSeries, window: WindowSlice, spec: BinningSpec) -> float:
    """Entropy of one window of a return series, from its bin counts."""
    return _count_entropy(_bin(slice_values(returns, window), spec)[1])


@dataclass(frozen=True)
class PmfSnapshot:
    """A single-day distribution and a multi-day span distribution under one
    shared fixed binning, so their masses are directly comparable."""

    day: np.datetime64
    day_dist: BinnedDistribution
    span_dist: BinnedDistribution
    day_entropy: float
    span_entropy: float


def pmf_snapshot(
    returns: ReturnSeries, day, preceding_days: int = 14, n_bins: int | None = None
) -> PmfSnapshot:
    """Distribution of one day's returns next to the distribution of that day
    plus its ``preceding_days`` trading days, binned identically over the
    pooled range."""
    if preceding_days < 0:
        raise ValueError(f"preceding_days must be >= 0, got {preceding_days}")
    target = np.datetime64(day, "D")
    days, bounds = returns.days
    at = int(np.searchsorted(days, target))
    if at == len(days) or days[at] != target:
        raise OutOfRange(f"no observations on {target}")
    if at < preceding_days:
        raise OutOfRange(f"only {at} trading days precede {target} (requested {preceding_days})")
    day_values = returns.values[bounds[at] : bounds[at + 1]]
    span_values = returns.values[bounds[at - preceding_days] : bounds[at + 1]]
    if n_bins is None:
        n_bins = velleman_bins(len(day_values))
    # A constant span gets per-window ranges: both sides degenerate.
    spec = BinningSpec.spanning(span_values, n_bins)
    day_dist, day_counts = _bin(day_values, spec)
    span_dist, span_counts = _bin(span_values, spec)
    return PmfSnapshot(
        target, day_dist, span_dist, _count_entropy(day_counts), _count_entropy(span_counts)
    )
