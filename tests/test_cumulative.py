import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from entroscope import (
    BinningSpec,
    Frequency,
    InsufficientBaseline,
    SeriesTooShort,
    Shock,
    ShockShape,
    SpectrumTable,
    SynthSpec,
    WindowSequenceSpec,
    build_sequences,
    detect_events,
    generate,
    log_returns,
    spectra_for_series,
    velleman_bins,
    window_bounds,
)
from entroscope import cumulative
from entroscope.cumulative import (
    BLOCK_COUNTS,
    BLOCK_SEQUENCES,
    MAD_TO_SIGMA,
    PER_WINDOW_BLOCK_VALUES,
    EventSignature,
    _flags,
    _per_window_counts,
    _prefix_counts,
    _trailing_min,
)
from entroscope.entropy import (
    _c_log_c_table, _entropy_from_sums, bin_indices, entropy_from_counts,
)

from _fixtures import make_returns


def _bounds(windows):
    return [(w.start_index, w.end_index) for w in windows]


# ----------------------------------------------------------------------
# build_sequences
# ----------------------------------------------------------------------

def test_build_sequences_hand_enumerated():
    spec = WindowSequenceSpec(base_length=10, increment=5, steps=2, stride=5, sequence_count=2)
    seqs = build_sequences(30, spec)
    assert _bounds(seqs[0]) == [(0, 10), (0, 15), (0, 20)]
    assert _bounds(seqs[1]) == [(5, 15), (5, 20), (5, 25)]


@pytest.mark.parametrize("kwargs, message", [
    ({"base_length": 1}, "base_length must be >= 2"),
    ({"base_length": 2, "increment": 0}, "increment/stride must be >= 1 and steps >= 0"),
    ({"base_length": 2, "stride": 0}, "increment/stride must be >= 1 and steps >= 0"),
    ({"base_length": 2, "steps": -1}, "increment/stride must be >= 1 and steps >= 0"),
    ({"base_length": 2, "sequence_count": 0}, "sequence_count must be >= 1"),
    ({"base_length": 2, "anchor_mode": "sideways"}, "unknown anchor_mode 'sideways'"),
], ids=["base_length", "increment", "stride", "steps", "sequence_count", "anchor_mode"])
def test_window_sequence_spec_refuses_invalid_geometry(kwargs, message):
    with pytest.raises(ValueError) as caught:
        WindowSequenceSpec(**kwargs)
    assert str(caught.value) == message


def test_build_sequences_auto_fill():
    spec = WindowSequenceSpec(base_length=10, increment=5, steps=2, stride=5)
    seqs = build_sequences(30, spec)
    assert len(seqs) == 3
    assert _bounds(seqs[2]) == [(10, 20), (10, 25), (10, 30)]


def test_build_sequences_zero_steps():
    spec = WindowSequenceSpec(base_length=6, stride=3)
    seqs = build_sequences(12, spec)
    assert all(len(seq) == 1 and len(seq[0]) == 6 for seq in seqs)


def test_build_sequences_exact_boundary():
    spec = WindowSequenceSpec(base_length=10, increment=5, steps=2, stride=7)
    seqs = build_sequences(20, spec)
    assert len(seqs) == 1


def test_build_sequences_too_short():
    with pytest.raises(SeriesTooShort):
        build_sequences(19, WindowSequenceSpec(base_length=10, increment=5, steps=2))
    with pytest.raises(SeriesTooShort):
        build_sequences(30, WindowSequenceSpec(base_length=10, increment=5, steps=2,
                                               stride=5, sequence_count=4))


def test_build_sequences_grow_left_shares_right_edge():
    spec = WindowSequenceSpec(base_length=10, increment=5, steps=2, stride=5,
                              anchor_mode="grow-left", sequence_count=2)
    seqs = build_sequences(30, spec)
    assert _bounds(seqs[0]) == [(10, 20), (5, 20), (0, 20)]
    assert _bounds(seqs[1]) == [(15, 25), (10, 25), (5, 25)]


@settings(max_examples=80)
@given(
    base=st.integers(2, 12),
    increment=st.integers(1, 6),
    steps=st.integers(0, 4),
    stride=st.integers(1, 8),
    extra=st.integers(0, 40),
    grow_left=st.booleans(),
)
def test_sequences_strictly_nested(base, increment, steps, stride, extra, grow_left):
    spec = WindowSequenceSpec(
        base_length=base,
        increment=increment,
        steps=steps,
        stride=stride,
        anchor_mode="grow-left" if grow_left else "grow-right",
    )
    length = spec.span + extra
    for seq in build_sequences(length, spec):
        for small, big in zip(seq, seq[1:]):
            assert big.start_index <= small.start_index
            assert small.end_index <= big.end_index
            assert len(big) == len(small) + increment
        assert all(0 <= w.start_index < w.end_index <= length for w in seq)


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------

def test_spectrum_constant_series_all_zero():
    r = make_returns([0.01] * 40)
    spec = WindowSequenceSpec(base_length=10, increment=5, steps=3, stride=5)
    for sp in spectra_for_series(r, spec, BinningSpec(8)):
        assert np.all(sp.values == 0.0)


def test_spectrum_rises_when_new_bins_fill():
    r = make_returns([0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
    seq_spec = WindowSequenceSpec(base_length=4, increment=3, steps=1)
    sp = spectra_for_series(r, seq_spec, BinningSpec(4, lo=0.0, hi=4.0))[0]
    assert sp.values[0] == 0.0
    expected_h1 = -(4 / 7 * math.log(4 / 7) + 3 * (1 / 7) * math.log(1 / 7))
    assert sp.values[1] == pytest.approx(expected_h1, abs=1e-12)
    assert sp.values[0] < sp.values[1]


def _spectrum_oracle(values, windows, n_bins, lo=None, hi=None):
    """Naive recomputation: rebin every window from scratch, then sum."""
    out = []
    for w in windows:
        vals = values[w.start_index : w.end_index]
        if lo is None:
            wlo, whi = min(vals), max(vals)
            if wlo == whi:
                out.append(0.0)
                continue
        else:
            wlo, whi = lo, hi
        counts = [0] * n_bins
        for v in vals:
            i = int(math.floor((v - wlo) / (whi - wlo) * n_bins))
            counts[min(max(i, 0), n_bins - 1)] += 1
        total = len(vals)
        out.append(-sum(c / total * math.log(c / total) for c in counts if c))
    return out


def test_spectrum_matches_naive_oracle():
    rng = np.random.default_rng(13)
    vals = rng.normal(0, 0.01, 120)
    r = make_returns(vals)
    seq_spec = WindowSequenceSpec(base_length=20, increment=10, steps=3, stride=15)
    for binning in (BinningSpec(11), BinningSpec(11, lo=-0.02, hi=0.02)):
        spectra = spectra_for_series(r, seq_spec, binning)
        sequences = build_sequences(len(r), seq_spec)
        for sp, seq in zip(spectra, sequences):
            want = _spectrum_oracle(vals.tolist(), seq, 11, binning.lo, binning.hi)
            assert np.max(np.abs(sp.values - np.array(want))) <= 1e-12


def test_spectrum_anchor_metadata():
    r = make_returns(np.linspace(-0.01, 0.01, 30))
    seq_spec = WindowSequenceSpec(base_length=5, increment=5, steps=1, stride=10)
    spectra = spectra_for_series(r, seq_spec, BinningSpec(5))
    assert [sp.sequence_index for sp in spectra] == [0, 1, 2]
    assert spectra[1].anchor_timestamp == r.timestamps[10]
    assert spectra[1].span_start == 10 and spectra[1].span_end == 20


# (anchor_mode, per-window range, n_bins, constant stretches); the
# fixed-range cases at 7 bins keep their anchor-mode ids.
BLOCK_CASES = {
    "grow-right": ("grow-right", False, 7, False),
    "grow-left": ("grow-left", False, 7, False),
    "per-window-grow-right": ("grow-right", True, 7, False),
    "per-window-grow-left": ("grow-left", True, 7, False),
    "per-window-constant-grow-right": ("grow-right", True, 7, True),
    "per-window-constant-grow-left": ("grow-left", True, 7, True),
    "per-window-one-bin": ("grow-left", True, 1, True),
    "fixed-one-bin": ("grow-right", False, 1, False),
}


@pytest.mark.filterwarnings("error")  # a constant window must not divide 0 by 0
@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_prefix_count_table_matches_oracle_across_blocks(case):
    # Stride 1 with more sequences than one block of the policy's table. The
    # fixed range clamps the tails into the end bins; constant stretches,
    # one across a block boundary, give windows whose values are all equal.
    anchor_mode, per_window, n_bins, constant = BLOCK_CASES[case]
    rng = np.random.default_rng(18)
    seq_spec = WindowSequenceSpec(base_length=6, increment=3, steps=2, stride=1,
                                  anchor_mode=anchor_mode)
    if per_window:
        block = PER_WINDOW_BLOCK_VALUES // max(seq_spec.span, (seq_spec.steps + 1) * n_bins)
    else:  # the stride-1 update's block
        block = BLOCK_COUNTS // n_bins
    vals = rng.normal(0, 0.01, block + 300 + seq_spec.span - 1)
    if constant:
        for at in (0, 500, 2000, block - 10, len(vals) - 20):
            vals[at : at + 20] = vals[at]
    r = make_returns(vals)
    binning = BinningSpec(n_bins) if per_window else BinningSpec(n_bins, lo=-0.01, hi=0.01)
    table = spectra_for_series(r, seq_spec, binning)
    assert len(table) == block + 300
    values = vals.tolist()
    want = np.array([
        _spectrum_oracle(values, seq, n_bins, binning.lo, binning.hi)
        for seq in build_sequences(len(r), seq_spec)
    ])
    assert np.max(np.abs(table.values - want)) <= 1e-12
    if constant:
        assert np.count_nonzero(table.values == 0.0) >= 5


@pytest.mark.parametrize("anchor_mode", ["grow-right", "grow-left"])
def test_fixed_range_spectra_bits_do_not_depend_on_block_size(anchor_mode, monkeypatch):
    rng = np.random.default_rng(19)
    r = make_returns(rng.normal(0, 0.01, 400))
    binning = BinningSpec(7, lo=-0.015, hi=0.015)
    for stride in (2, 1):  # the full recount, then the stride-1 update
        seq_spec = WindowSequenceSpec(base_length=9, increment=4, steps=3, stride=stride,
                                      anchor_mode=anchor_mode)
        monkeypatch.setattr(cumulative, "BLOCK_COUNTS", BLOCK_COUNTS)
        want = spectra_for_series(r, seq_spec, binning).values
        for block_counts in (1, 7, 30, 100):
            monkeypatch.setattr(cumulative, "BLOCK_COUNTS", block_counts)
            assert spectra_for_series(r, seq_spec, binning).values.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")  # a constant window must not divide 0 by 0
@pytest.mark.parametrize("anchor_mode", ["grow-right", "grow-left"])
def test_stride_one_update_bits_equal_full_recount(anchor_mode):
    # More sequences than one stride-1 block, clamped tails and constant
    # stretches as long as a sequence; the full recount of every window in
    # one block is the reference.
    rng = np.random.default_rng(20)
    n_bins = 7
    seq_spec = WindowSequenceSpec(base_length=6, increment=3, steps=2, stride=1,
                                  anchor_mode=anchor_mode)
    vals = rng.normal(0, 0.01, BLOCK_COUNTS // n_bins + 500)
    for at in (100, 2000, BLOCK_COUNTS // n_bins - 5, len(vals) - 30):
        vals[at : at + 30] = vals[at]
    r = make_returns(vals)
    binning = BinningSpec(n_bins, lo=-0.01, hi=0.01)
    table = spectra_for_series(r, seq_spec, binning)
    assert len(table) > BLOCK_COUNTS // n_bins
    idx = bin_indices(r.values, n_bins, binning.lo, binning.hi)
    assert np.count_nonzero(idx == 0) and np.count_nonzero(idx == n_bins - 1)
    starts, ends = window_bounds(len(r), table.spec)
    counts = _prefix_counts(idx, n_bins, starts, ends, 1)
    want = entropy_from_counts(counts, ends[0] - starts[0])
    assert table.values.tobytes() == want.tobytes()
    constant = np.flatnonzero((counts == counts.sum(axis=-1, keepdims=True)).any(axis=-1))
    assert len(constant) >= 4 * 15 and np.all(table.values.ravel()[constant] == 0.0)
    assert np.all(table.values.ravel()[np.setdiff1d(np.arange(table.values.size), constant)] > 0)


@pytest.mark.parametrize("anchor_mode", ["grow-right", "grow-left"])
@pytest.mark.parametrize("g", [1, 2, 3, 78])
def test_granule_prefix_counts_bits_equal_per_value_prefix(g, anchor_mode):
    # Bounds that are multiples of g and of nothing larger, over more
    # sequences than one fixed-range block; the reference takes prefix
    # counts after every value.
    rng = np.random.default_rng(21)
    n_bins = 7
    seq_spec = WindowSequenceSpec(base_length=2 * g, increment=3 * g, steps=3, stride=5 * g,
                                  anchor_mode=anchor_mode)
    block = BLOCK_COUNTS // ((seq_spec.steps + 1) * n_bins)
    vals = rng.normal(0, 0.01, (block + 50) * seq_spec.stride + seq_spec.span)
    r = make_returns(vals)
    binning = BinningSpec(n_bins, lo=-0.01, hi=0.01)
    table = spectra_for_series(r, seq_spec, binning)
    assert len(table) > block
    idx = bin_indices(r.values, n_bins, binning.lo, binning.hi)
    starts, ends = window_bounds(len(r), table.spec)
    prefix = cumulative._prefix_matrix(idx, n_bins)
    want = prefix[ends] - prefix[starts]
    assert np.array_equal(_prefix_counts(idx, n_bins, starts, ends, g), want)
    assert np.array_equal(_prefix_counts(idx, n_bins, starts[5:9], ends[5:9], g), want[5:9])
    assert table.values.tobytes() == entropy_from_counts(want, seq_spec.lengths).tobytes()


def _sequence_rows(patterns, anchor_mode):
    # One sequence per row of ``patterns``, each ordered from the edge its
    # windows share, laid end to end in a series and read back as
    # spectra_for_series reads it: grow-right rows of the series, or for
    # grow-left of a reversed copy of it, whose rows run from each
    # sequence's right edge in reverse anchor order.
    span = patterns.shape[1]
    values = patterns.ravel()
    if anchor_mode == "grow-left":
        series = patterns[::-1, ::-1].ravel()  # sequence j ends at its right edge
        values = series[::-1].copy()
    return sliding_window_view(values, span)[::span]


def _counts_oracle(window, n_bins):
    lo, hi = window.min(), window.max()
    if lo == hi:
        return np.bincount(np.zeros(len(window), dtype=np.int64), minlength=n_bins)
    return np.bincount(bin_indices(window, n_bins, lo, hi), minlength=n_bins)


def _monotone(n, span, sign):
    return sign * (np.arange(n)[:, None] * 0.1 + np.linspace(0.0, 1.0, span))


def _per_window_patterns(case, rng, n, base, span):
    values = rng.normal(0.0, 0.01, (n, span))
    if case == "range-never-changes":
        values[:, 0], values[:, base - 1] = -1.0, 1.0
    elif case == "range-changes-every-window":
        values = _monotone(n, span, 1.0)
    elif case == "only-min-changes":
        values = _monotone(n, span, -1.0)
        values[:, 0] = 1.0
    elif case == "only-max-changes":
        values = _monotone(n, span, 1.0)
        values[:, 0] = -1.0
    elif case == "mixed":
        values[::3, 0], values[::3, 1] = -1.0, 1.0
        values[1::3] = _monotone(len(values[1::3]), span, 1.0)
    elif case == "constant-stretches":
        values[0] = 0.25                  # every window degenerate
        values[1, :base] = -0.5           # degenerate base, then a range
        values[2, base:] = values[2, 0]   # a range that repeats its first value
        values[3::2] = np.round(values[3::2], 2)  # ties inside each window
    return values


PER_WINDOW_CASES = [
    "range-never-changes", "range-changes-every-window", "only-min-changes",
    "only-max-changes", "mixed", "constant-stretches",
]


@pytest.mark.filterwarnings("error")  # a constant window must not divide 0 by 0
@pytest.mark.parametrize("anchor_mode", ["grow-right", "grow-left"])
@pytest.mark.parametrize("case", PER_WINDOW_CASES)
def test_per_window_counts_equal_rebinning_each_window(case, anchor_mode):
    n_bins, base, increment, steps, n = 5, 6, 3, 4, 9
    lengths = base + increment * np.arange(steps + 1)
    patterns = _per_window_patterns(case, np.random.default_rng(23), n, base, lengths[-1])
    rows = _sequence_rows(patterns, anchor_mode)
    counts = _per_window_counts(rows, lengths, n_bins)
    assert counts.dtype == np.int64
    for j in range(n):
        for k, length in enumerate(lengths):
            assert counts[j, k].tolist() == _counts_oracle(patterns[j, :length], n_bins).tolist()
    h = entropy_from_counts(counts, lengths)
    if case == "constant-stretches":
        assert (h[0] == 0.0).all() and (h[1, 0] == 0.0)
    else:
        assert (h > 0.0).all()


@pytest.mark.parametrize("anchor_mode", ["grow-right", "grow-left"])
def test_per_window_spectra_bits_do_not_depend_on_block_size(anchor_mode, monkeypatch):
    rng = np.random.default_rng(29)
    vals = rng.normal(0, 0.01, 400)
    vals[100:130] = vals[100]
    r = make_returns(vals)
    seq_spec = WindowSequenceSpec(base_length=9, increment=4, steps=3, stride=2,
                                  anchor_mode=anchor_mode)
    want = spectra_for_series(r, seq_spec, BinningSpec(7)).values
    for block_values in (1, 7):
        monkeypatch.setattr(cumulative, "PER_WINDOW_BLOCK_VALUES", block_values)
        got = spectra_for_series(r, seq_spec, BinningSpec(7)).values
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_bins", [3, 40])
def test_per_window_blocks_bound_counts_by_bins(n_bins, monkeypatch):
    # Blocks hold at most PER_WINDOW_BLOCK_VALUES values and window counts
    # (or one sequence), whichever of span and windows * n_bins is larger.
    seq_spec = WindowSequenceSpec(base_length=6, increment=2, steps=2, stride=1)
    r = make_returns(np.random.default_rng(31).normal(0, 0.01, 200))
    monkeypatch.setattr(cumulative, "PER_WINDOW_BLOCK_VALUES", 300)
    blocks = []

    def recording(rows, lengths, bins, *args):
        blocks.append(len(rows))
        return _per_window_counts(rows, lengths, bins, *args)

    monkeypatch.setattr(cumulative, "_per_window_counts", recording)
    spectra_for_series(r, seq_spec, BinningSpec(n_bins))
    per_sequence = max(seq_spec.span, (seq_spec.steps + 1) * n_bins)
    assert sum(blocks) == 200 - seq_spec.span + 1
    assert max(blocks) == max(1, 300 // per_sequence)


# (increment, stride, shift): the stride one increment and two increments,
# where window k of a sequence is window k - shift of its neighbour plus
# ``stride`` values, and a stride that is no multiple of the increment.
NEIGHBOUR_GEOMETRIES = {
    "one increment": (3, 3, 1), "two increments": (3, 6, 2), "no multiple": (3, 4, 0),
}


def _tied_series(rng, n, stride):
    # Values on a coarse grid, so that extremes tie within and across
    # windows; an extreme repeated one stride apart, so that a window and
    # its neighbour share a range the stride values also reach; constant
    # stretches longer than a sequence, so that whole windows, and a window
    # and its neighbour, have lo == hi.
    vals = np.round(rng.normal(0.0, 0.01, n), 3)
    for at in range(10, n - stride, 37):
        vals[at] = vals[at + stride] = 0.05 if at % 2 else -0.05
    vals[100:130] = 0.004
    vals[300:325] = vals[299]
    return vals


@pytest.mark.filterwarnings("error")  # a constant window must not divide 0 by 0
@pytest.mark.parametrize("anchor_mode", ["grow-right", "grow-left"])
@pytest.mark.parametrize("geometry", sorted(NEIGHBOUR_GEOMETRIES))
def test_per_window_neighbour_counts_equal_rebinning_each_window(
    geometry, anchor_mode, monkeypatch
):
    # Rows are windows of one series, as spectra_for_series reads them, so
    # a window's counts may come from the neighbouring sequence's; blocks
    # of 1, 2, 5 sequences and one block for all split neighbours or not.
    increment, stride, want_shift = NEIGHBOUR_GEOMETRIES[geometry]
    n_bins = 5
    seq_spec = WindowSequenceSpec(base_length=6, increment=increment, steps=4, stride=stride,
                                  anchor_mode=anchor_mode)
    vals = _tied_series(np.random.default_rng(37), 400, stride)
    r = make_returns(vals)
    starts, ends = window_bounds(len(vals), seq_spec)
    lengths = ends[0] - starts[0]
    want_counts = np.array([  # every window binned alone over its own range
        [_counts_oracle(vals[a:b], n_bins) for a, b in zip(row_starts, row_ends)]
        for row_starts, row_ends in zip(starts, ends)
    ])
    table, q = _c_log_c_table(seq_spec.span)
    want = _entropy_from_sums(table.take(want_counts).sum(axis=-1), lengths, table, q)
    assert np.count_nonzero(want == 0.0) >= 10  # constant windows

    calls = []

    def recording(rows, lengths, bins, shift=0):
        counts = _per_window_counts(rows, lengths, bins, shift)
        calls.append((rows, shift, counts))
        return counts

    monkeypatch.setattr(cumulative, "_per_window_counts", recording)
    per_sequence = max(seq_spec.span, (seq_spec.steps + 1) * n_bins)
    for block in (1, 2, 5, len(starts)):
        monkeypatch.setattr(cumulative, "PER_WINDOW_BLOCK_VALUES", block * per_sequence)
        calls.clear()
        got = spectra_for_series(r, seq_spec, BinningSpec(n_bins))
        assert got.values.tobytes() == want.tobytes()
        assert {shift for _, shift, _ in calls} == {want_shift}
        for rows, _, counts in calls:
            assert counts.tolist() == [
                [_counts_oracle(row[:length], n_bins).tolist() for length in lengths]
                for row in rows
            ]


def test_per_window_neighbour_rule_bins_stride_values_instead_of_windows(monkeypatch):
    # At the CLI's day geometry (base = increment = stride = one day of
    # bars), a window k >= 1 whose range is window k - 1's bins the day it
    # adds, one whose range is the next sequence's window k - 1 bins the
    # day it starts with, and only the rest, with every window 0, are
    # binned whole.
    bars, steps = 78, 13
    series, _ = generate(SynthSpec(seed=7, n_days=60, bars_per_day=bars))
    r = log_returns(series)
    seq_spec = WindowSequenceSpec(bars, bars, steps, bars)
    binned = []

    def counting(values, *args):
        binned.append(values.size)
        return bin_indices(values, *args)

    monkeypatch.setattr(cumulative, "bin_indices", counting)
    spectra_for_series(r, seq_spec, BinningSpec(velleman_bins(bars)))

    starts, ends = window_bounds(len(r), seq_spec)
    lengths = ends[0] - starts[0]
    rows = sliding_window_view(r.values, seq_spec.span)[::bars][: len(starts)]
    lows = np.minimum.accumulate(rows, axis=1)[:, lengths - 1]
    highs = np.maximum.accumulate(rows, axis=1)[:, lengths - 1]
    own = (lows[:, 1:] == lows[:, :-1]) & (highs[:, 1:] == highs[:, :-1])
    near = np.zeros_like(own)
    near[:-1] = (lows[:-1, 1:] == lows[1:, :-1]) & (highs[:-1, 1:] == highs[1:, :-1])
    reused = ~own & near
    whole = ~own & ~near
    assert np.count_nonzero(reused) > 2 * np.count_nonzero(whole) > 0
    assert sum(binned) == (
        len(starts) * bars * (steps + 1)  # window 0 and each window's added day
        - np.count_nonzero(~own) * bars  # ... but not where the range changed
        + np.count_nonzero(reused) * bars
        + (whole * lengths[1:]).sum()
    )


def test_window_bounds_arrays():
    spec = WindowSequenceSpec(base_length=10, increment=5, steps=2, stride=5,
                              anchor_mode="grow-left")
    starts, ends = window_bounds(30, spec)
    assert starts.dtype == ends.dtype == np.int64
    assert starts.tolist() == [[10, 5, 0], [15, 10, 5], [20, 15, 10]]
    assert ends.tolist() == [[20, 20, 20], [25, 25, 25], [30, 30, 30]]
    assert [_bounds(seq) for seq in build_sequences(30, spec)][2] == [(20, 30), (15, 30), (10, 30)]


def test_spectrum_table_views():
    r = make_returns(np.linspace(-0.01, 0.01, 40))
    seq_spec = WindowSequenceSpec(base_length=5, increment=5, steps=2, stride=10,
                                  anchor_mode="grow-left")
    table = spectra_for_series(r, seq_spec, BinningSpec(5))
    assert isinstance(table, SpectrumTable)
    assert len(table) == 3 and table.values.shape == (3, 3)
    views = list(table)
    assert [sp.sequence_index for sp in views] == [0, 1, 2]
    for j, sp in enumerate(views):
        assert np.array_equal(sp.values, table.values[j])
        assert sp.anchor_timestamp == r.timestamps[10 * j]
        assert table.peaks[j] == table.values[j].max()
    last = table[-1]
    assert last.sequence_index == 2 and np.array_equal(last.values, table.values[2])
    assert (last.span_start, last.span_end) == (20, 35)
    starts, ends = window_bounds(len(r), table.spec)
    assert starts[-1].tolist() == [30, 25, 20] and ends[-1].tolist() == [35, 35, 35]
    for bad in (3, -4):
        with pytest.raises(IndexError):
            table[bad]
    for bad in (1.0, "1", slice(0, 2)):
        with pytest.raises(TypeError):
            table[bad]


@settings(max_examples=60, deadline=None)
@given(
    base=st.integers(2, 9),
    increment=st.integers(1, 5),
    steps=st.integers(0, 4),
    multiple=st.integers(1, 3),
    offset=st.integers(0, 4),
    count=st.integers(1, 12),
    extra=st.integers(0, 9),
    grow_left=st.booleans(),
    per_window=st.booleans(),
)
def test_table_geometry_is_window_bounds(
    base, increment, steps, multiple, offset, count, extra, grow_left, per_window
):
    # The stride is a multiple of the increment plus an offset, which is
    # not a multiple when 0 < offset < increment.
    stride = multiple * increment + offset
    spec = WindowSequenceSpec(base, increment, steps, stride, sequence_count=count,
                              anchor_mode="grow-left" if grow_left else "grow-right")
    length = spec.span + (count - 1) * stride + extra
    r = make_returns(np.random.default_rng(count).normal(0, 0.01, length))
    binning = BinningSpec(5) if per_window else BinningSpec(5, lo=-0.01, hi=0.01)
    table = spectra_for_series(r, spec, binning)
    starts, ends = window_bounds(len(r), spec)
    assert spec.lengths.dtype == np.int64
    assert np.array_equal(ends - starts, np.broadcast_to(spec.lengths, starts.shape))
    assert len(table) == count and table.spec.sequence_count == count
    assert table.binning == binning and table.values.shape == starts.shape
    for got, want in zip(window_bounds(len(r), table.spec), (starts, ends)):
        assert np.array_equal(got, want)
    assert np.array_equal(table.anchor_timestamps, r.timestamps[starts.min(axis=1)])
    for j, sp in enumerate(table):
        assert sp.sequence_index == j
        assert (sp.span_start, sp.span_end) == (starts[j].min(), ends[j].max())
    assert j == count - 1


@pytest.mark.parametrize("steps", [0, 3])
def test_spectrum_table_peaks_taken_once(steps):
    rng = np.random.default_rng(37)
    r = make_returns(rng.normal(0, 0.01, 300))
    table = spectra_for_series(r, WindowSequenceSpec(20, 10, steps, 3), BinningSpec(9))
    assert table.peaks is table.peaks
    assert table.peaks.tobytes() == table.values.max(axis=1).tobytes()


def test_spectrum_values_within_bounds():
    rng = np.random.default_rng(15)
    r = make_returns(rng.normal(0, 0.01, 200))
    binning = BinningSpec(9)
    for sp in spectra_for_series(r, WindowSequenceSpec(10, 5, 3, 20), binning):
        assert np.all(sp.values >= 0.0)
        assert np.all(sp.values <= math.log(9) + 1e-12)


def test_spectrum_deterministic_bytes():
    rng = np.random.default_rng(16)
    r = make_returns(rng.normal(0, 0.01, 200))
    seq_spec = WindowSequenceSpec(base_length=20, increment=10, steps=2, stride=10)
    a = spectra_for_series(r, seq_spec, BinningSpec(10))
    b = spectra_for_series(r, seq_spec, BinningSpec(10))
    assert b"".join(sp.values.tobytes() for sp in a) == b"".join(
        sp.values.tobytes() for sp in b
    )


# ----------------------------------------------------------------------
# detect_events
# ----------------------------------------------------------------------

def _detect_events_oracle(spectra, threshold=3.0, min_persistence=2, baseline=8,
                          dispersion_floor=None):
    """The detector as a per-sequence loop of np.median calls: the flags and
    the events."""
    if dispersion_floor is None:
        dispersion_floor = 0.05 * math.log(max(spectra.binning.n_bins, 2))
    peaks = np.array([sp.values.max() for sp in spectra])
    n = len(peaks)
    flagged = np.zeros(n, dtype=bool)
    for j in range(baseline, n):
        window = peaks[j - baseline : j]
        med = float(np.median(window))
        mad = MAD_TO_SIGMA * float(np.median(np.abs(window - med)))
        dispersion = max(mad, dispersion_floor)
        if peaks[j] - med > threshold * dispersion:
            flagged[j] = True

    events = []
    j = 0
    while j < n:
        if not flagged[j]:
            j += 1
            continue
        run = 0
        while j + run < n and flagged[j + run]:
            run += 1
        if run < min_persistence:
            j += run
            continue
        onset = spectra[j]
        diffs = np.diff(onset.values)
        events.append(
            EventSignature(
                onset_index=j,
                onset_timestamp=onset.anchor_timestamp,
                peak_value=float(peaks[j : j + run].max()),
                ramp_slope=float(diffs.max()) if len(diffs) else 0.0,
                persistence=run,
            )
        )
        j += max(run, baseline)
    return flagged, events


def _table_of(values, n_bins=18):
    # Sequence j anchored at j, window k spanning [j, j + k + 2).
    n, m = values.shape
    spec = WindowSequenceSpec(2, 1, m - 1, sequence_count=n)
    anchors = np.datetime64("2025-01-02T09:30:00") + np.arange(n) * np.timedelta64(300, "s")
    return SpectrumTable(values, anchors, BinningSpec(n_bins), spec)


def _assert_matches_oracle(table, threshold, min_persistence, baseline, dispersion_floor):
    """_flags and detect_events agree with the loop oracle; returns its flags
    and events."""
    want_flags, want_events = _detect_events_oracle(
        table, threshold, min_persistence, baseline, dispersion_floor
    )
    floor = 0.05 * math.log(18) if dispersion_floor is None else dispersion_floor
    assert np.array_equal(_flags(table.peaks, threshold, baseline, floor), want_flags)
    assert detect_events(table, threshold, min_persistence, baseline, dispersion_floor) == want_events
    return want_flags, want_events


@pytest.mark.parametrize(
    "threshold,min_persistence,baseline,dispersion_floor",
    [(3.0, 2, 8, None), (1.0, 1, 7, 0.0), (2.0, 3, 78, None), (0.5, 2, 4, 0.0),
     (3.0, 2, 9, None), (0.0, 2, 8, 0.0)],
)
def test_detect_matches_loop_oracle(threshold, min_persistence, baseline, dispersion_floor):
    # Peaks on a coarse grid tie often (zero MADs, equal medians); a planted
    # run of high peaks straddles the first block boundary of the flags.
    rng = np.random.default_rng(19)
    n = baseline + BLOCK_SEQUENCES + 1500
    values = rng.integers(0, 6, size=(n, 3)) * 0.25
    boundary = baseline + BLOCK_SEQUENCES
    values[boundary - 1 : boundary + 2, 1] = 5.0
    table = _table_of(values)
    want_flags, want_events = _assert_matches_oracle(
        table, threshold, min_persistence, baseline, dispersion_floor
    )
    assert want_flags[boundary - 1] and want_flags[boundary]
    assert want_events
    if threshold == 0.0:
        # every peak above its trailing minimum is a candidate: several blocks
        low = sliding_window_view(table.peaks, baseline)[:-1].min(axis=1)
        assert np.count_nonzero(table.peaks[baseline:] > low) > BLOCK_SEQUENCES


def test_detect_matches_loop_oracle_with_baseline_sequences_only():
    rng = np.random.default_rng(23)
    for baseline in (8, 78):
        table = _table_of(rng.integers(0, 6, size=(baseline, 3)) * 0.25)
        flags, events = _assert_matches_oracle(table, 0.0, 2, baseline, 0.0)
        assert not flags.any() and events == []


def test_detect_matches_loop_oracle_second_event_starts_mid_run():
    # Baseline 8: the run 20..21 is an event, so the next may start at 28;
    # the next run is flagged from 27 on, and its event starts at 28.
    peaks = np.zeros(40)
    peaks[[20, 21, 27, 28, 29, 30]] = 1.0
    table = _table_of(np.column_stack([np.zeros(40), peaks]))
    flags, events = _assert_matches_oracle(table, 1.0, 2, 8, 0.1)
    assert np.flatnonzero(flags).tolist() == [20, 21, 27, 28, 29, 30]
    assert [(ev.onset_index, ev.persistence) for ev in events] == [(20, 2), (28, 3)]


@settings(max_examples=200)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=300), st.data())
def test_trailing_min_equals_direct_minimum(ints, data):
    # Four distinct values: ties within and across the spans. Widths 2^k - 1,
    # 2^k and 2^k + 1 end the doubling at each span and move the second
    # span's offset width - span; widths past n give no window.
    x = np.array(ints, dtype=float)
    n = len(x)
    powers = [w for k in range(2, 8) for w in (2**k - 1, 2**k, 2**k + 1)]
    widths = sorted({w for w in (1, 2, 78, *powers, n - 1, n, n + 1, n + 2) if w >= 1})
    width = data.draw(st.sampled_from(widths) | st.integers(1, n + 3))
    want = sliding_window_view(x, width).min(axis=1) if width <= n else x[:0]
    assert np.array_equal(_trailing_min(x, width), want)


@pytest.mark.parametrize(
    "peaks", [np.full(300, 1.7), 1.0 + np.random.default_rng(29).uniform(0, 0.29, 300)]
)
def test_flags_screen_skips_median_on_quiet_peaks(peaks, monkeypatch):
    # Every peak lies within threshold * floor = 0.3 of its trailing
    # minimum, so no sequence can be flagged and no median is taken.
    def no_median(*args, **kwargs):
        raise AssertionError("median taken for a screened sequence")

    monkeypatch.setattr(np, "median", no_median)
    assert not _flags(peaks, 3.0, 8, 0.1).any()


def test_detect_matches_loop_oracle_on_spectra():
    _, spectra, _, _ = _shocked_spectra(seed=5, shock_days=[9, 15], n_days=24)
    assert detect_events(spectra) == _detect_events_oracle(spectra)[1]

def _shocked_spectra(seed, shock_days, n_days=20):
    spec = SynthSpec(
        seed=seed,
        n_days=n_days,
        bars_per_day=78,
        volatility=0.001,
        shocks=tuple(Shock(d, 10.0, ShockShape.DISPERSED_DAY) for d in shock_days),
    )
    series, log = generate(spec)
    r = log_returns(series)
    binning = BinningSpec(
        velleman_bins(78), lo=float(r.values.min()), hi=float(r.values.max())
    )
    seq_spec = WindowSequenceSpec(base_length=78, increment=26, steps=3, stride=26)
    return r, spectra_for_series(r, seq_spec, binning), log, seq_spec


def test_detect_flat_spectra_no_events():
    r = make_returns([0.01] * 400, frequency=Frequency.FIVE_MINUTE, bars_per_day=40)
    spectra = spectra_for_series(r, WindowSequenceSpec(20, 10, 2, 10), BinningSpec(8))
    assert detect_events(spectra) == []


def test_detect_single_shock_covers_injection():
    r, spectra, log, _ = _shocked_spectra(seed=7, shock_days=[12])
    events = detect_events(spectra)
    assert len(events) == 1
    ev = events[0]
    onset = spectra[ev.onset_index]
    shock_ts = log[0].timestamp
    assert r.timestamps[onset.span_start] <= shock_ts
    assert shock_ts <= r.timestamps[onset.span_end - 1]
    assert ev.ramp_slope > 0
    assert ev.persistence >= 2


def test_detect_two_separated_shocks_in_order():
    r, spectra, log, _ = _shocked_spectra(seed=3, shock_days=[8, 18], n_days=26)
    events = detect_events(spectra)
    assert len(events) == 2
    assert events[0].onset_index < events[1].onset_index
    for ev, rec in zip(events, log):
        onset = spectra[ev.onset_index]
        assert r.timestamps[onset.span_start] <= rec.timestamp
        assert rec.timestamp <= r.timestamps[onset.span_end - 1]


def test_detect_insufficient_baseline():
    r = make_returns(np.linspace(-0.01, 0.01, 60))
    spectra = spectra_for_series(r, WindowSequenceSpec(20, 10, 2, 10), BinningSpec(8))
    assert len(spectra) < 8
    with pytest.raises(InsufficientBaseline):
        detect_events(spectra)


def test_detect_invariant_under_affine_returns_transform():
    # Quiet regime occupies two tight clusters (few bins); the burst spreads
    # values across the whole range, which per-window binning does see.
    rng = np.random.default_rng(17)
    base = np.where(rng.random(1200) < 0.5, -1.0, 1.0) + rng.normal(0, 0.01, 1200)
    base[600:680] = rng.uniform(-1, 1, 80)
    seq_spec = WindowSequenceSpec(base_length=60, increment=30, steps=2, stride=30)

    def events_of(vals):
        r = make_returns(vals, frequency=Frequency.FIVE_MINUTE, bars_per_day=60)
        spectra = spectra_for_series(r, seq_spec, BinningSpec(14))
        return detect_events(spectra)

    ref = events_of(base)
    scaled = events_of(base * 250.0 + 0.003)
    assert [(e.onset_index, e.persistence) for e in ref] == [
        (e.onset_index, e.persistence) for e in scaled
    ]
    assert len(ref) >= 1


def test_detect_rejects_bad_parameters():
    r = make_returns(np.linspace(-0.01, 0.01, 400))
    spectra = spectra_for_series(r, WindowSequenceSpec(20, 10, 2, 10), BinningSpec(8))
    with pytest.raises(ValueError):
        detect_events(spectra, min_persistence=0)
    with pytest.raises(ValueError):
        detect_events(spectra, baseline=0)
    for threshold in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            detect_events(spectra, threshold=threshold)
    for floor in (math.nan, math.inf, -0.1):
        with pytest.raises(ValueError, match="dispersion_floor"):
            detect_events(spectra, dispersion_floor=floor)
