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
normal-consistent sigma, floored at 0.05 * ln(max(n_bins, 2)): the
MAD of a short baseline of near-identical peaks collapses toward zero,
and without the floor ordinary fluctuation would flag constantly. Flags
must persist over consecutive sequences to become an event, and events
are separated by at least one baseline width. Peaks are a running
maximum over the window columns, taken once per table; the screen's
trailing minima come from ``_trailing_min`` (see ``_flags``).

A window's entropy comes from its exact integer bin counts, through the
int64 sum of their fixed-point c ln c terms (``entropy._c_log_c_table``).
Under either bin-range policy, every way of counting a window, at any
stride and any block size, reaches the same integers, hence the same
bits. Working memory is bounded by a block of sequences, never by the
series. How each path counts is told once, in ``spectra_for_series`` and
its helpers ``_prefix_counts``, ``_stride_one_sums`` and
``_per_window_counts``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .entropy import BinningSpec, _c_log_c_table, _entropy_from_sums, bin_indices
from .entropy import window_entropy  # unused here: benchmark/tracing.py wraps it by this name
from .errors import InsufficientBaseline, SeriesTooShort
from .returns import ReturnSeries

MAD_TO_SIGMA = 1.4826
DEFAULT_DISPERSION_FLOOR_FRACTION = 0.05

GROW_RIGHT = "grow-right"
GROW_LEFT = "grow-left"

# Count cells per block of the fixed-range table. At stride > 1 a block of
# BLOCK_COUNTS // ((steps + 1) * n_bins) sequences holds at most
# BLOCK_COUNTS window counts and as many c ln c terms (256 KiB as int64,
# well inside a core's L2 cache), and a prefix-count matrix over the
# ((block - 1) * stride + span) / g granules of g = gcd(stride,
# base_length, increment) observations that it covers. At stride 1 only the
# prefix-count matrix holds counts: a block of BLOCK_COUNTS // n_bins
# sequences has BLOCK_COUNTS + span * n_bins of them, and (steps + 1)
# window steps per sequence. Working memory grows with the block, never
# with the series. A block of the detector's candidates holds at most as
# many baseline peaks (see ``_flags``).
BLOCK_COUNTS = 1 << 15

# Values per block of the per-window table: a block of
# PER_WINDOW_BLOCK_VALUES // max(span, (steps + 1) * n_bins) sequences (at
# least one) covers at most that many values, read in place, and holds at
# most that many window counts (4 MiB as int64). Each window step makes
# the same few dozen numpy calls whatever the block holds, so small blocks
# are bound by call overhead. On a 2-vCPU Xeon with 2 MiB of L2 per core,
# spectra of a year or of four years of 78-bar days at the day geometry
# took 1.7-2.0 times as long with blocks of 2**16 values as with 2**18 to
# 2**21, which were within noise of each other; 2**19 holds a year of day
# sequences in one block.
PER_WINDOW_BLOCK_VALUES = 1 << 19


@dataclass(frozen=True)
class WindowSequenceSpec:
    """Geometry of the sliding expanding-window construction.

    ``base_length`` observations in the smallest window, ``increment``
    observations added per step, ``steps`` expansions (so steps + 1 windows
    per sequence), ``stride`` between consecutive anchors. Windows share
    their left edge and grow forward by default; ``grow-left`` shares the
    right edge instead.
    """

    base_length: int
    increment: int = 1
    steps: int = 0
    stride: int = 1
    anchor_mode: str = GROW_RIGHT

    def __post_init__(self):
        if self.base_length < 2:
            raise ValueError("base_length must be >= 2")
        if self.increment < 1 or self.stride < 1 or self.steps < 0:
            raise ValueError("increment/stride must be >= 1 and steps >= 0")
        if self.anchor_mode not in (GROW_RIGHT, GROW_LEFT):
            raise ValueError(f"unknown anchor_mode {self.anchor_mode!r}")

    @property
    def span(self) -> int:
        return self.base_length + self.steps * self.increment

    @property
    def lengths(self) -> np.ndarray:
        """The window lengths ``base_length + k * increment`` for k in
        0..steps, as int64."""
        return self.base_length + np.arange(self.steps + 1, dtype=np.int64) * self.increment


@dataclass(frozen=True, eq=False)
class EntropySpectrum:
    """Entropy values H_0..H_m of one window sequence: a row of
    ``SpectrumTable.values``. ``window_bounds`` says where its windows lie."""

    values: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Spectra of every sequence of one series: ``values[j, k]`` is the
    entropy of window k of sequence j under ``spec``, the geometry the
    table was computed with, and ``anchor_timestamps[j]`` is sequence j's
    anchor. ``window_bounds`` alone says where the windows lie. ``len``
    and integer indexing (hence iteration) yield EntropySpectrum rows in
    anchor order, ``table[j].values`` being ``values[j]``;
    ``benchmark/tracing.py`` reads ``len(table)`` and ``table[0].values``."""

    values: np.ndarray
    anchor_timestamps: np.ndarray
    binning: BinningSpec
    spec: WindowSequenceSpec

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index) -> EntropySpectrum:
        return EntropySpectrum(self.values[operator.index(index)])

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

    One rule serves both anchor modes: window k of sequence j starts at
    j * stride + offset_k and ends length_k later, where offset_k is 0
    under grow-right (the windows share their left edge, j * stride) and
    span - length_k under grow-left (they share their right edge, j *
    stride + span). So the windows are strictly nested, and the widest,
    [starts[j, -1], ends[j, -1]), holds them all. Raises SeriesTooShort
    when even one sequence does not fit.
    """
    span = spec.span
    if series_length < span:
        raise SeriesTooShort(
            f"series length {series_length} cannot hold one sequence of span {span}"
        )
    count = (series_length - span) // spec.stride + 1
    offsets = span - spec.lengths if spec.anchor_mode == GROW_LEFT else 0 * spec.lengths
    anchors = np.arange(count, dtype=np.int64) * spec.stride
    # Added as (steps + 1, sequences), then copied into C order: numpy adds
    # long rows faster than it adds a column of anchors to a short row.
    starts = np.ascontiguousarray((anchors + offsets[:, None]).T)
    return starts, starts + spec.lengths


build_sequences = window_bounds  # unused here: benchmark/tracing.py wraps it by this name


def _prefix_matrix(idx: np.ndarray, n_bins: int) -> np.ndarray:
    """Prefix counts (an integral histogram) of the bin indices ``idx``: row
    i holds the bin counts of the first i values."""
    prefix = np.zeros((len(idx) + 1, n_bins), dtype=np.int32)
    prefix[np.arange(1, len(idx) + 1), idx] = 1
    np.cumsum(prefix, axis=0, out=prefix)
    return prefix


def _prefix_counts(
    idx: np.ndarray, n_bins: int, starts: np.ndarray, ends: np.ndarray, g: int
) -> np.ndarray:
    """Window counts of one block of sequences under a fixed range, from
    the prefix counts C of the bin indices ``idx`` that the block covers,
    taken once per granule of ``g`` values: every bound is a multiple of
    g, row t of C holds the bin counts of the first t * g values, and
    window [a, b) counts C[b / g] - C[a / g]."""
    first, last = int(starts.min()), int(ends.max())
    granules = (last - first) // g
    # Row t + 1 of ``counts`` is granule t's histogram; their cumsum is C.
    keys = (np.arange(last - first) // g + 1) * n_bins + idx[first:last]
    counts = np.bincount(keys, minlength=(granules + 1) * n_bins)
    prefix = np.cumsum(counts.reshape(-1, n_bins), axis=0, dtype=np.int32)
    del counts  # int64: twice the prefix counts
    return prefix.take((ends - first) // g, axis=0) - prefix.take((starts - first) // g, axis=0)


def _stride_one_sums(
    idx: np.ndarray, n_bins: int, starts: np.ndarray, ends: np.ndarray, table: np.ndarray
) -> np.ndarray:
    """Sums S of ``table[c]`` over the window counts c of one block of
    stride-1 sequences under a fixed range: the sums of ``table.take(
    _prefix_counts(...)).sum(-1)``, bit for bit.

    Only the block's first sequence is counted whole. Sequence j's window
    k is sequence j - 1's without the value at a = starts[j - 1, k] and
    with the value at b = ends[j - 1, k]. Removing a from its bin's count
    c_out, then adding b to its bin's remaining count c_in, changes S by
    [F(c_in + 1) - F(c_in)] - [F(c_out) - F(c_out - 1)], which is 0 when
    both share a bin. With prefix counts C and r[i] = C[i, idx[i]], the
    values before i in i's bin, c_out = C[b, idx[a]] - r[a] and c_in = r[b]
    - C[a + 1, idx[b]]: two cells of C per window step. The int64 steps
    accumulate exactly along the block. Such a chain of single-observation
    steps costs about half the full recount at stride 1, about as much at
    stride 2 and more from stride 4 on, so only stride 1 takes it."""
    first, last = int(starts[0].min()), int(ends[-1].max())
    seg = idx[first:last]
    prefix = _prefix_matrix(seg, n_bins)
    flat = prefix.ravel()
    rank = flat.take(np.arange(len(seg)) * n_bins + seg)
    a, b = starts[:-1] - first, ends[:-1] - first
    bin_a, bin_b = seg.take(a), seg.take(b)
    c_out = flat.take(b * n_bins + bin_a) - rank.take(a)
    c_in = rank.take(b) - flat.take((a + 1) * n_bins + bin_b)
    step = np.diff(table)  # step[c] = F(c + 1) - F(c)
    sums = np.empty(starts.shape, dtype=np.int64)
    sums[0] = table.take(prefix[ends[0] - first] - prefix[starts[0] - first]).sum(axis=-1)
    sums[1:] = step.take(c_in) - step.take(c_out - 1)
    return np.cumsum(sums, axis=0, out=sums)


def _per_window_counts(
    rows: np.ndarray, lengths: np.ndarray, n_bins: int, shift: int = 0
) -> np.ndarray:
    """Window counts of one block of sequences under per-window ranges. Row
    j holds sequence j's values ordered from the edge its windows share, so
    window k is ``rows[j, :lengths[k]]``.

    Window k's range is the running minimum and maximum of window k - 1's
    range and the values window k adds. Where the range stays window k -
    1's, each value lands in the same bin as before, so window k's counts
    are window k - 1's plus those of the added values. ``shift`` > 0 says
    that the stride is ``shift`` increments and that row j + 1 holds the
    next sequence away from the shared edge; then window k >= shift of row
    j is window k - shift of row j + 1 plus ``rows[j, :stride]``, and where
    the two ranges are equal its counts are row j + 1's plus those of the
    stride values. Window 0 and every window that matches neither is
    binned whole, as is a window of the last row that only row j + 1,
    outside the block, would match. No window bins more values than
    binning it whole would. A window whose values are all equal falls in
    bin 0, so its entropy is 0."""
    n = len(rows)
    offsets = (np.arange(n) * n_bins)[:, None]

    def count(at, start, stop, lo, top):
        # Counts of rows[at, start:stop], each row binned over its range
        # (0 for no rows).
        if not len(at):
            return 0
        idx = bin_indices(rows[at, start:stop], n_bins, lo[at, None], top[at, None])
        idx += offsets[: len(at)]
        return np.bincount(idx.ravel(), minlength=len(at) * n_bins).reshape(-1, n_bins)

    # Each window's range, for all windows at once: the running extrema
    # of the extrema of the values each window adds. The row past the last
    # is NaN, which equals no range.
    edges = [0, *lengths[:-1]]
    lows, highs = np.full((2, len(lengths), n + 1), np.nan)
    lows[:, :n] = np.minimum.accumulate(np.minimum.reduceat(rows, edges, axis=1), axis=1).T
    highs[:, :n] = np.maximum.accumulate(np.maximum.reduceat(rows, edges, axis=1), axis=1).T
    lengths = lengths.tolist()
    stride = lengths[shift] - lengths[0] if 0 < shift < len(lengths) else 0
    counts = np.empty((n, len(lengths), n_bins), dtype=np.int64)
    edge = 0
    for k, length in enumerate(lengths):
        lo, hi = lows[k, :n], highs[k, :n]
        top = np.where(hi == lo, np.inf, hi)  # (v - lo) / inf = 0
        moved = (lo != lows[k - 1, :n]) | (hi != highs[k - 1, :n]) if k else np.ones(n, bool)
        same, changed = np.flatnonzero(~moved), np.flatnonzero(moved)
        counts[same, k] = counts[same, k - 1] + count(same, edge, length, lo, top)
        if stride and k >= shift:
            prior, near = k - shift, changed + 1  # near: the neighbouring rows
            equal = (lows[prior, near] == lo[changed]) & (highs[prior, near] == hi[changed])
            j = changed[equal]
            counts[j, k] = counts[j + 1, prior] + count(j, 0, stride, lo, top)
            changed = changed[~equal]
        counts[changed, k] = count(changed, 0, length, lo, top)
        edge = length
    return counts


def spectra_for_series(
    returns: ReturnSeries, seq_spec: WindowSequenceSpec, binning: BinningSpec
) -> SpectrumTable:
    """Spectra of all sequences, in anchor order, as one table.

    Sequences go in blocks. Each window's entropy comes from the exact
    int64 sum S of its fixed-point c ln c terms (``entropy._c_log_c_table``,
    built once per call over 0..span), so a sum does not depend on how it
    was reached. A fixed range bins every value once and counts windows
    from prefix counts. At stride 1 a block counts only its first sequence
    whole; every later window's S is the previous sequence's plus the
    change of the two counts its step touches (``_stride_one_sums``). At
    stride > 1 every window is counted whole from prefix counts taken once
    per granule of gcd(stride, base_length, increment) values, of which
    every window bound is a multiple (``_prefix_counts``). A per-window
    range takes each window's minimum and maximum as running extrema over
    the extrema of the values each window adds, for every window of a
    block at once. A window whose range equals the
    previous window's reuses its counts plus those of the added values;
    when the stride is m increments, one whose range equals window k - m
    of the neighbouring sequence (the next anchor under grow-right, the
    previous under grow-left) reuses that window's counts plus those of
    the ``stride`` values it lacks (``_per_window_counts``). Any other
    window is binned whole over its own range, as is a window whose
    neighbour falls in another block. Counts are exact integers, so the
    fixed-range paths give identical bits, the per-window path gives the
    same bits whatever the block size, and entropies agree with rebinning
    each window alone to the bound of ``entropy._c_log_c_table``.
    """
    starts, ends = window_bounds(len(returns), seq_spec)
    lengths = seq_spec.lengths
    n_bins = binning.n_bins
    table, q = _c_log_c_table(seq_spec.span)
    stride_one = binning.is_fixed and seq_spec.stride == 1
    values = np.empty(starts.shape)
    out = values  # the table's rows in the order the blocks run
    if binning.is_fixed:
        idx = bin_indices(returns.values, n_bins, binning.lo, binning.hi)
        windows = 1 if stride_one else seq_spec.steps + 1
        # Every window bound is a multiple of the granule.
        granule = math.gcd(seq_spec.stride, seq_spec.base_length, seq_spec.increment)
        block = max(1, BLOCK_COUNTS // (windows * n_bins))
    else:
        series = returns.values
        if seq_spec.anchor_mode == GROW_LEFT:
            # Grow-right rows of a reversed copy of the values up to the last
            # sequence's right edge: each row reads from its shared right edge,
            # in reverse anchor order, so that row j + 1 holds row j's neighbour
            # as under grow-right, and no row is read through negative strides.
            series, out = returns.values[ends[-1, -1] - 1 :: -1].copy(), values[::-1]
        rows = sliding_window_view(series, seq_spec.span)[:: seq_spec.stride][: len(starts)]
        shift, rest = divmod(seq_spec.stride, seq_spec.increment)
        if rest:  # no window of the neighbour lacks exactly the stride values
            shift = 0
        block = max(
            1, PER_WINDOW_BLOCK_VALUES // max(seq_spec.span, (seq_spec.steps + 1) * n_bins)
        )
    for lo in range(0, len(starts), block):
        part = slice(lo, lo + block)
        if stride_one:
            sums = _stride_one_sums(idx, n_bins, starts[part], ends[part], table)
        elif binning.is_fixed:
            counts = _prefix_counts(idx, n_bins, starts[part], ends[part], granule)
            sums = table.take(counts).sum(axis=-1)
        else:
            sums = table.take(_per_window_counts(rows[part], lengths, n_bins, shift)).sum(axis=-1)
        out[part] = _entropy_from_sums(sums, lengths, table, q)
    return SpectrumTable(values, returns.timestamps[starts[:, -1]], binning, seq_spec)


def _trailing_min(x: np.ndarray, width: int) -> np.ndarray:
    """``min(x[i : i + width])`` for every i in 0..len(x) - width (none when
    width > len(x)), for width >= 1.

    Doubling: after each step ``low[i]`` is the minimum of
    ``x[i : i + span]``; two spans, one at each end of a window, cover it."""
    count = len(x) - width + 1
    if count < 1:
        return x[:0]
    low, span = x, 1
    while 2 * span < width:
        low = np.minimum(low[:-span], low[span:])
        span *= 2
    return np.minimum(low[:count], low[width - span : width - span + count])


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
    minima come from ``_trailing_min``, in ceil(log2 baseline) passes (1
    at a baseline of 1) over contiguous slices; minima are exact, so the
    screen is too.

    Candidates go in blocks of max(1, BLOCK_COUNTS // baseline), so that a
    block holds at most BLOCK_COUNTS baseline peaks (or one baseline, when
    that is longer), as a fixed-range spectrum block holds at most
    BLOCK_COUNTS counts. Blocks only group candidates into median calls,
    so the flags do not depend on their size."""
    n = len(peaks)
    flagged = np.zeros(n, dtype=bool)
    trailing = sliding_window_view(peaks, baseline)  # row i: peaks[i : i + baseline]
    low = _trailing_min(peaks[:-1], baseline)  # low[i]: min(trailing[i])
    candidates = baseline + np.flatnonzero(peaks[baseline:] - low > threshold * dispersion_floor)
    block = max(1, BLOCK_COUNTS // baseline)
    for lo in range(0, len(candidates), block):
        c = candidates[lo : lo + block]
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
) -> list[EventSignature]:
    """Flag ramp-like excursions of peak entropy above a trailing baseline.

    For sequence j, the excess g_j = peak_j - median(previous ``baseline``
    peaks) is compared against ``threshold`` times the floored, sigma-scaled
    MAD of that baseline. At least ``min_persistence`` consecutive flags
    form an event anchored at the first flagged sequence; subsequent events
    must start at least ``baseline`` sequences later.

    The dispersion is floored at 0.05 * ln(max(n_bins, 2)), in entropy
    units, which keeps the default threshold meaningful on quiet data.
    ``threshold`` must be finite and >= 0.
    """
    if min_persistence < 1 or baseline < 1:
        raise ValueError("min_persistence and baseline must be >= 1")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    required = max(baseline, 2 * min_persistence)
    if len(spectra) < required:
        raise InsufficientBaseline(
            f"need at least {required} spectra, got {len(spectra)}"
        )
    dispersion_floor = DEFAULT_DISPERSION_FLOOR_FRACTION * math.log(
        max(spectra.binning.n_bins, 2)
    )

    peaks = spectra.peaks
    flagged = _flags(peaks, threshold, baseline, dispersion_floor)
    # The runs of flags from their edges: as short as ``codec.runs`` of the
    # flags, which would also return the runs of no flag.
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
