"""Expanding-window entropy spectra and extreme-event detection.

A sequence of nested windows anchored at one point grows by a fixed
increment: window k spans w0 + k*dt observations. Evaluating the binned
entropy on each window yields the sequence's spectrum H_0..H_m; sliding
the anchor by a stride produces overlapping sequences across the series.
Short, information-dense episodes reconfigure the interval masses and show
up as sharp ramps in these spectra.

The detector compares each sequence's peak entropy against a trailing
median baseline; a sequence is flagged when the excess exceeds a robust
dispersion estimate. Dispersion is the MAD of the baseline scaled to the
normal-consistent sigma, floored at a small fraction of ln(n_bins): the
MAD of a short baseline of near-identical peaks collapses toward zero,
and without the floor ordinary fluctuation would flag constantly. Flags
must persist over consecutive sequences to become an event, and events
are separated by at least one baseline width. Peaks are a running
maximum over the window columns, taken once per table; the screen's
trailing minima come from block prefix and suffix minima (``sliding_min``),
in time linear in the number of sequences whatever the baseline.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .entropy import BinningSpec, bin_indices, entropy_from_counts
from .entropy import window_entropy  # unused here: benchmark/tracing.py wraps it by this name
from .errors import InsufficientBaseline, SeriesTooShort
from .returns import ReturnSeries, WindowSlice

MAD_TO_SIGMA = 1.4826
DEFAULT_DISPERSION_FLOOR_FRACTION = 0.05

GROW_RIGHT = "grow-right"
GROW_LEFT = "grow-left"

# Window counts per block of the fixed-range table: a block of
# BLOCK_COUNTS // ((steps + 1) * n_bins) sequences holds at most
# BLOCK_COUNTS window counts and as many c ln c terms (256 KiB as float64,
# well inside a core's L2 cache), and a prefix-count matrix over its
# (block - 1) * stride + span observations. Working memory grows with the
# block, never with the series.
BLOCK_COUNTS = 1 << 15

# Candidate sequences per block of the detector's baseline medians and
# MADs: a block holds block * baseline peaks.
BLOCK_SEQUENCES = 4096

# Values per block of the per-window table: a block of
# PER_WINDOW_BLOCK_VALUES // max(span, (steps + 1) * n_bins) sequences (at
# least one) holds at most that many values, as one transposed copy, and
# at most that many window counts.
PER_WINDOW_BLOCK_VALUES = 65536


@dataclass(frozen=True)
class WindowSequenceSpec:
    """Geometry of the sliding expanding-window construction.

    ``base_length`` observations in the smallest window, ``increment``
    observations added per step, ``steps`` expansions (so steps + 1 windows
    per sequence), ``stride`` between consecutive anchors. ``sequence_count``
    of None fills the series. Windows share their left edge and grow
    forward by default; ``grow-left`` shares the right edge instead.
    """

    base_length: int
    increment: int = 1
    steps: int = 0
    stride: int = 1
    sequence_count: int | None = None
    anchor_mode: str = GROW_RIGHT

    def __post_init__(self):
        if self.base_length < 2:
            raise ValueError("base_length must be >= 2")
        if self.increment < 1 or self.stride < 1 or self.steps < 0:
            raise ValueError("increment/stride must be >= 1 and steps >= 0")
        if self.sequence_count is not None and self.sequence_count < 1:
            raise ValueError("sequence_count must be >= 1")
        if self.anchor_mode not in (GROW_RIGHT, GROW_LEFT):
            raise ValueError(f"unknown anchor_mode {self.anchor_mode!r}")

    @property
    def span(self) -> int:
        return self.base_length + self.steps * self.increment


@dataclass(frozen=True, eq=False)
class EntropySpectrum:
    """Entropy values H_0..H_m of one window sequence; window k is the
    half-open index range [starts[k], ends[k])."""

    sequence_index: int
    anchor_timestamp: np.datetime64
    values: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    binning: BinningSpec

    @property
    def peak(self) -> float:
        return float(self.values.max())

    @property
    def span_start(self) -> int:
        return int(self.starts.min())

    @property
    def span_end(self) -> int:
        return int(self.ends.max())


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Spectra of every sequence of one series: ``values[j, k]`` is the
    entropy of window k of sequence j, the half-open index range
    [starts[j, k], ends[j, k]). ``len``, indexing and iteration yield
    EntropySpectrum views of single rows, in anchor order."""

    values: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    anchor_timestamps: np.ndarray
    binning: BinningSpec

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index) -> EntropySpectrum:
        j = operator.index(index)
        if j < 0:
            j += len(self)
        if not 0 <= j < len(self):
            raise IndexError(f"sequence index {index} out of range for {len(self)} sequences")
        return EntropySpectrum(
            j, self.anchor_timestamps[j], self.values[j], self.starts[j], self.ends[j],
            self.binning,
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @cached_property
    def peaks(self) -> np.ndarray:
        """Each sequence's largest entropy, ``values.max(axis=1)``, taken
        once per table as a running maximum over the window columns."""
        peaks = self.values[:, 0].copy()
        for k in range(1, self.values.shape[1]):
            np.maximum(peaks, self.values[:, k], out=peaks)
        return peaks


@dataclass(frozen=True)
class EventSignature:
    """A flagged ramp: the sequence where flagging begins, the largest peak
    over the flagged run, the steepest single-step rise within the onset
    sequence, and how many consecutive sequences stayed flagged."""

    onset_index: int
    onset_timestamp: np.datetime64
    peak_value: float
    ramp_slope: float
    persistence: int


def window_bounds(series_length: int, spec: WindowSequenceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of every window of every sequence that fits in a series of the
    given length: int64 arrays ``starts`` and ``ends`` of shape
    (sequences, steps + 1), window k of sequence j being [starts[j, k],
    ends[j, k]).

    Sequence j is anchored at index j*stride; its windows are strictly
    nested. Raises SeriesTooShort when even one sequence does not fit, or
    when an explicit sequence_count does not.
    """
    span = spec.span
    if series_length < span:
        raise SeriesTooShort(
            f"series length {series_length} cannot hold one sequence of span {span}"
        )
    max_count = (series_length - span) // spec.stride + 1
    count = spec.sequence_count if spec.sequence_count is not None else max_count
    if count > max_count:
        raise SeriesTooShort(
            f"series length {series_length} holds at most {max_count} sequences, "
            f"requested {count}"
        )

    anchors = np.arange(count, dtype=np.int64)[:, None] * spec.stride
    lengths = spec.base_length + np.arange(spec.steps + 1, dtype=np.int64) * spec.increment
    if spec.anchor_mode == GROW_RIGHT:
        starts = np.repeat(anchors, spec.steps + 1, axis=1)
        ends = anchors + lengths
    else:
        ends = np.repeat(anchors + span, spec.steps + 1, axis=1)
        starts = ends - lengths
    return starts, ends


def build_sequences(series_length: int, spec: WindowSequenceSpec) -> list[list[WindowSlice]]:
    """The windows of ``window_bounds`` as one list of WindowSlice per
    sequence."""
    starts, ends = window_bounds(series_length, spec)
    return [
        [WindowSlice(a, b) for a, b in zip(row_starts, row_ends)]
        for row_starts, row_ends in zip(starts.tolist(), ends.tolist())
    ]


def _prefix_counts(
    idx: np.ndarray, n_bins: int, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Window counts of one block of sequences under a fixed range, from
    prefix counts (an integral histogram) of the bin indices ``idx``: row i
    of the prefix-count matrix C holds the bin counts of the block's first i
    values, so window [a, b) counts C[b] - C[a]."""
    first, last = int(starts.min()), int(ends.max())
    prefix = np.zeros((last - first + 1, n_bins), dtype=np.int32)
    prefix[np.arange(1, last - first + 1), idx[first:last]] = 1
    np.cumsum(prefix, axis=0, out=prefix)
    return prefix.take(ends - first, axis=0) - prefix.take(starts - first, axis=0)


def _per_window_counts(rows: np.ndarray, lengths: np.ndarray, n_bins: int) -> np.ndarray:
    """Window counts of one block of sequences under per-window ranges. Row
    j holds sequence j's values ordered from the edge its windows share, so
    window k is ``rows[j, :lengths[k]]``.

    Window k's range is the running minimum and maximum of window k - 1's
    range and the values window k adds. Where the range stays window k -
    1's, each value lands in the same bin as before, so window k's counts
    are window k - 1's plus those of the added values. A window whose range
    changed is binned whole. Reuse bins the added values of every sequence
    and the changed windows whole; when that is at least as many values as
    all the block's windows k, those are binned whole instead. A window
    whose values are all equal falls in bin 0, so its entropy is 0."""
    cols = np.ascontiguousarray(rows.T)  # cols[i, j] is value i of sequence j
    n = cols.shape[1]
    offsets = np.arange(n) * n_bins

    def count(values, lows, highs):
        idx = bin_indices(values, n_bins, lows, highs)
        idx += offsets[: len(lows)]
        return np.bincount(idx.ravel(), minlength=len(lows) * n_bins).reshape(-1, n_bins)

    counts = np.empty((n, len(lengths), n_bins), dtype=np.int64)
    lows, highs = np.full(n, np.inf), np.full(n, -np.inf)  # window 0 changes every range
    edge = 0
    for k, length in enumerate(lengths.tolist()):
        added = cols[edge:length]
        new_lows = np.minimum(lows, added.min(axis=0))
        new_highs = np.maximum(highs, added.max(axis=0))
        changed = np.flatnonzero((new_lows != lows) | (new_highs != highs))
        lows, highs = new_lows, new_highs
        tops = np.where(highs == lows, np.inf, highs)  # (v - lo) / inf = 0
        if len(changed) * length >= n * edge:  # whole windows bin no more values
            counts[:, k] = count(cols[:length], lows, tops)
        else:
            counts[:, k] = counts[:, k - 1] + count(added, lows, tops)
            counts[changed, k] = count(cols[:length, changed], lows[changed], tops[changed])
        edge = length
    return counts


def spectra_for_series(
    returns: ReturnSeries, seq_spec: WindowSequenceSpec, binning: BinningSpec
) -> SpectrumTable:
    """Spectra of all sequences, in anchor order, as one table.

    Sequences go in blocks, and each block's window counts end in one
    ``entropy_from_counts`` call. A fixed range bins every value once and
    takes counts from prefix counts. A per-window range takes each
    window's minimum and maximum as running extrema over the values it
    adds; a window whose range equals the previous window's reuses its
    counts plus those of the added values, and any other window is binned
    whole over its own range. Counts are exact integers; entropies agree
    with rebinning each window alone to rounding.
    """
    starts, ends = window_bounds(len(returns), seq_spec)
    lengths = ends[0] - starts[0]
    n_bins = binning.n_bins
    if binning.is_fixed:
        idx = bin_indices(returns.values, n_bins, binning.lo, binning.hi)
        block = max(1, BLOCK_COUNTS // ((seq_spec.steps + 1) * n_bins))
    else:
        rows = sliding_window_view(returns.values, seq_spec.span)[:: seq_spec.stride]
        rows = rows[: len(starts)]
        if seq_spec.anchor_mode == GROW_LEFT:
            rows = rows[:, ::-1]  # the windows share the right edge
        block = max(
            1, PER_WINDOW_BLOCK_VALUES // max(seq_spec.span, (seq_spec.steps + 1) * n_bins)
        )
    values = np.empty(starts.shape)
    for lo in range(0, len(starts), block):
        part = slice(lo, lo + block)
        if binning.is_fixed:
            counts = _prefix_counts(idx, n_bins, starts[part], ends[part])
        else:
            counts = _per_window_counts(rows[part], lengths, n_bins)
        values[part] = entropy_from_counts(counts, lengths)
    anchors = returns.timestamps[starts.min(axis=1)]
    return SpectrumTable(values, starts, ends, anchors, binning)


def sliding_min(x: np.ndarray, width: int) -> np.ndarray:
    """``min(x[i : i + width])`` for every i in 0..len(x) - width (none when
    width > len(x)), for width >= 1, in O(len(x)) whatever the width.

    The van Herk/Gil-Werman method: cut x into blocks of ``width``; every
    window is one whole block or spans the tail of one block and the head
    of the next, so its minimum is the smaller of a suffix minimum and a
    prefix minimum within blocks. Minima are exact, so the result equals
    the direct one."""
    n = len(x)
    blocks = -(-n // width)
    cut = np.empty(blocks * width, dtype=x.dtype)
    cut[:n] = x
    cut[n:] = x[-1:]  # padding past every window's last value: no result reads it
    cut = cut.reshape(blocks, width)
    prefix = np.minimum.accumulate(cut, axis=1).ravel()
    suffix = np.minimum.accumulate(cut[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.minimum(suffix[: n - width + 1], prefix[width - 1 : n])


def _flags(
    peaks: np.ndarray, threshold: float, baseline: int, dispersion_floor: float
) -> np.ndarray:
    """Whether each sequence's peak exceeds the median of the previous
    ``baseline`` peaks by more than ``threshold`` times their floored,
    sigma-scaled MAD. The first ``baseline`` sequences are never flagged.

    The median and MAD are taken only for candidates: sequences whose peak
    exceeds the minimum of their baseline by more than threshold * floor.
    The screen is exact for threshold >= 0. The minimum is at most the
    median, the dispersion is at least the floor and IEEE rounding is
    monotone, so peak - median <= peak - minimum <= threshold * floor <=
    threshold * dispersion for every sequence screened out. The trailing
    minima come from ``sliding_min``, in O(n) for any ``baseline``."""
    n = len(peaks)
    flagged = np.zeros(n, dtype=bool)
    trailing = sliding_window_view(peaks, baseline)  # row i: peaks[i : i + baseline]
    low = sliding_min(peaks[:-1], baseline)  # low[i]: min(trailing[i])
    candidates = baseline + np.flatnonzero(peaks[baseline:] - low > threshold * dispersion_floor)
    for lo in range(0, len(candidates), BLOCK_SEQUENCES):
        c = candidates[lo : lo + BLOCK_SEQUENCES]
        window = trailing[c - baseline]
        med = np.median(window, axis=1)
        mad = MAD_TO_SIGMA * np.median(np.abs(window - med[:, None]), axis=1)
        dispersion = np.maximum(mad, dispersion_floor)
        flagged[c] = peaks[c] - med > threshold * dispersion
    return flagged


def detect_events(
    spectra: SpectrumTable,
    threshold: float = 3.0,
    min_persistence: int = 2,
    baseline: int = 8,
    dispersion_floor: float | None = None,
) -> list[EventSignature]:
    """Flag ramp-like excursions of peak entropy above a trailing baseline.

    For sequence j, the excess g_j = peak_j - median(previous ``baseline``
    peaks) is compared against ``threshold`` times the floored, sigma-scaled
    MAD of that baseline. At least ``min_persistence`` consecutive flags
    form an event anchored at the first flagged sequence; subsequent events
    must start at least ``baseline`` sequences later.

    ``dispersion_floor`` defaults to 0.05 * ln(n_bins), in entropy units,
    which keeps the default threshold meaningful on quiet data.
    ``threshold`` and a given ``dispersion_floor`` must be finite and >= 0.
    """
    if min_persistence < 1 or baseline < 1:
        raise ValueError("min_persistence and baseline must be >= 1")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    if dispersion_floor is not None and not (
        math.isfinite(dispersion_floor) and dispersion_floor >= 0
    ):
        raise ValueError(f"dispersion_floor must be finite and >= 0, got {dispersion_floor}")
    required = max(baseline, 2 * min_persistence)
    if len(spectra) < required:
        raise InsufficientBaseline(
            f"need at least {required} spectra, got {len(spectra)}"
        )
    if dispersion_floor is None:
        dispersion_floor = DEFAULT_DISPERSION_FLOOR_FRACTION * math.log(
            max(spectra.binning.n_bins, 2)
        )

    peaks = spectra.peaks
    flagged = _flags(peaks, threshold, baseline, dispersion_floor)
    edges = np.flatnonzero(np.diff(flagged, prepend=False, append=False))

    events: list[EventSignature] = []
    j = 0  # the earliest sequence the next event may start at
    for first, end in edges.reshape(-1, 2).tolist():
        first = max(first, j)
        run = end - first
        if run < min_persistence:
            continue
        diffs = np.diff(spectra.values[first])
        events.append(
            EventSignature(
                onset_index=first,
                onset_timestamp=spectra.anchor_timestamps[first],
                peak_value=float(peaks[first:end].max()),
                ramp_slope=float(diffs.max()) if len(diffs) else 0.0,
                persistence=run,
            )
        )
        j = first + max(run, baseline)
    return events
