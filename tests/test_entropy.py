import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroscope import (
    BinnedDistribution,
    BinningSpec,
    EmptyWindow,
    Frequency,
    OutOfRange,
    WindowSequenceSpec,
    bin_returns,
    pmf_snapshot,
    shannon_entropy,
    spectra_for_series,
    velleman_bins,
    window_entropy,
)
from entroscope.entropy import _c_log_c_table, bin_indices, entropy_from_counts

from _fixtures import make_returns


def _entropy_oracle(vals, n_bins, lo=None, hi=None):
    """Two-pass reference: explicit bin counting then plain summation."""
    if lo is None:
        lo, hi = min(vals), max(vals)
        if lo == hi:
            return 0.0
    counts = [0] * n_bins
    for v in vals:
        i = int(math.floor((v - lo) / (hi - lo) * n_bins))
        counts[min(max(i, 0), n_bins - 1)] += 1
    total = len(vals)
    return -sum(c / total * math.log(c / total) for c in counts if c)


def test_velleman_examples():
    assert velleman_bins(100) == 20
    assert velleman_bins(69) == 17
    assert velleman_bins(1) == 2


def test_velleman_rejects_nonpositive():
    with pytest.raises(ValueError):
        velleman_bins(0)


def test_binning_spec_validation():
    with pytest.raises(ValueError):
        BinningSpec(0)
    with pytest.raises(ValueError, match=r"n_bins must be in 1\.\.2\*\*53, got 9007199254740993"):
        BinningSpec(2**53 + 1)  # past the float64 bin positions, and before any array
    with pytest.raises(ValueError):
        BinningSpec(4, lo=1.0)
    with pytest.raises(ValueError):
        BinningSpec(4, lo=1.0, hi=1.0)
    assert BinningSpec(4, lo=0.0, hi=2.0).is_fixed and not BinningSpec(4).is_fixed


@pytest.mark.parametrize("make, message", [
    (lambda: BinnedDistribution(BinningSpec(2), 0.0, 1.0, [0.5, 0.5], 0),
     "support_count must be >= 1"),
    (lambda: BinnedDistribution(BinningSpec(2), 0.0, 1.0, [0.5, 0.25], 4),
     "masses must be a probability vector"),
    (lambda: BinnedDistribution(BinningSpec(2), 0.0, 1.0, [1.5, -0.5], 4),
     "masses must be a probability vector"),
    (lambda: pmf_snapshot(make_returns([0.01] * 5), "2025-01-04", preceding_days=-1),
     "preceding_days must be >= 0, got -1"),
], ids=["support_count", "masses sum", "negative mass", "preceding_days"])
def test_invalid_distribution_input_is_refused(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


def test_spanning_is_fixed_over_min_max_and_per_window_when_constant():
    assert BinningSpec.spanning(np.array([0.5, -0.25, 2.0, 0.0]), 7) == BinningSpec(
        7, lo=-0.25, hi=2.0
    )
    assert BinningSpec.spanning(np.full(5, 0.125), 3) == BinningSpec(3)
    assert BinningSpec.spanning(np.array([-1.5]), 2) == BinningSpec(2)


def test_bin_fixed_one_point_per_bin():
    dist = bin_returns([0.0, 1.0, 2.0, 3.0], BinningSpec(4, lo=0.0, hi=4.0))
    assert dist.masses.tolist() == [0.25, 0.25, 0.25, 0.25]
    assert dist.support_count == 4


def test_bin_degenerate_identical_values():
    dist = bin_returns([0.7] * 5, BinningSpec(10))
    assert dist.masses.tolist() == [1.0]
    assert dist.n_bins == 1
    assert shannon_entropy(dist) == 0.0


def test_bin_max_value_lands_in_last_bin():
    dist = bin_returns([0.0, 0.5, 1.0], BinningSpec(2, lo=0.0, hi=1.0))
    assert dist.masses.tolist() == [pytest.approx(1 / 3), pytest.approx(2 / 3)]


def test_bin_uniform_draws_match_count_oracle():
    rng = np.random.default_rng(11)
    vals = rng.random(1000)
    dist = bin_returns(vals, BinningSpec(10, lo=0.0, hi=1.0))
    counts = [0] * 10
    for v in vals:
        counts[min(int(math.floor(v * 10)), 9)] += 1
    assert dist.masses.tolist() == [c / 1000 for c in counts]
    assert all(abs(m - 0.1) < 0.05 for m in dist.masses)


def test_bin_empty_window():
    with pytest.raises(EmptyWindow):
        bin_returns([], BinningSpec(4))


def test_bin_nonfinite_rejected():
    with pytest.raises(ValueError):
        bin_returns([0.1, math.nan], BinningSpec(4))


def test_bin_clamps_and_counts_out_of_range():
    dist = bin_returns([-5.0, 0.1, 0.9, 7.0], BinningSpec(2, lo=0.0, hi=1.0))
    assert dist.clamped_count == 2
    assert dist.masses.tolist() == [0.5, 0.5]


@pytest.mark.filterwarnings("error")  # the int64 cast must not overflow
def test_bin_clamps_values_whose_scaled_index_passes_int64():
    vals = np.array([0.5, 1e300, 1e19, -1e300, -1e19])
    assert bin_indices(vals, 2, 0.0, 1.0).tolist() == [1, 1, 1, 0, 0]
    dist = bin_returns([0.5, 1e300], BinningSpec(2, lo=0.0, hi=1.0))
    assert dist.masses.tolist() == [0.0, 1.0] and dist.clamped_count == 1


def test_bin_indices_equal_floor_then_clamp():
    # Within the int64 range the float clamp gives the bits of flooring
    # first: bin edges, values just beside them, and values outside.
    rng = np.random.default_rng(12)
    n_bins, lo, hi = 7, -0.013, 0.021
    edges = lo + (hi - lo) * np.arange(n_bins + 1) / n_bins
    vals = np.concatenate([
        rng.uniform(-0.05, 0.05, 2000), edges, np.nextafter(edges, -1), np.nextafter(edges, 1),
        [-1e15, 1e15, -0.0, 0.0],
    ])
    want = np.clip(np.floor((vals - lo) / (hi - lo) * n_bins).astype(np.int64), 0, n_bins - 1)
    assert bin_indices(vals, n_bins, lo, hi).tolist() == want.tolist()


def test_shannon_uniform_four_bins():
    dist = bin_returns([0.0, 1.0, 2.0, 3.0], BinningSpec(4, lo=0.0, hi=4.0))
    assert shannon_entropy(dist) == pytest.approx(math.log(4), abs=1e-12)


def test_shannon_single_bin_zero():
    dist = bin_returns([0.3, 0.3, 0.3], BinningSpec(6))
    assert shannon_entropy(dist) == 0.0


def test_shannon_frozen_mixed_masses():
    # (1/2, 1/4, 1/4) has entropy exactly 1.5 ln 2
    dist = bin_returns([0.1, 0.4, 0.4, 0.9], BinningSpec(3, lo=0.0, hi=0.9))
    assert dist.masses.tolist() == [0.25, 0.5, 0.25]
    assert shannon_entropy(dist) == pytest.approx(1.0397207708399179, abs=1e-12)


def test_shannon_entropy_bits_equal_plain_mass_formula():
    # shannon_entropy keeps -sum(p ln p) over the masses bit for bit.
    rng = np.random.default_rng(22)
    dists = [
        bin_returns([0.0, 1.0, 2.0, 3.0], BinningSpec(4, lo=0.0, hi=4.0)),
        bin_returns([0.3, 0.3, 0.3], BinningSpec(6)),
        bin_returns([0.1, 0.4, 0.4, 0.9], BinningSpec(3, lo=0.0, hi=0.9)),
        *(
            bin_returns(rng.normal(0, 0.01, n), BinningSpec(velleman_bins(n)))
            for n in (5, 78, 2000)
        ),
    ]
    for dist in dists:
        p = dist.masses
        want = -(p * np.log(p, out=np.zeros_like(p), where=p > 0)).sum() + 0.0
        assert shannon_entropy(dist).hex() == float(want).hex()
    assert shannon_entropy(dists[2]).hex() == (1.0397207708399179).hex()


def _mass_entropy(p):
    """-sum(p ln p) over the last axis of masses ``p``, from a masked log:
    the float formula that the fixed-point kernel is held to."""
    return 0.0 - (p * np.log(p, out=np.zeros_like(p), where=p > 0)).sum(axis=-1)


def test_entropy_from_counts_table_agrees_with_masses():
    # Integer counts take c ln c from a table; the reference takes the
    # masses' p ln p from a masked log.
    rng = np.random.default_rng(23)
    counts = rng.integers(0, 6, size=(300, 3, 9)) * rng.integers(0, 2, size=(300, 3, 9))
    counts[:, :, 0] += 1  # no empty window
    counts[::7] = 0
    counts[::7, :, 4] = rng.integers(1, 200, size=(len(counts[::7]), 3))  # one value
    totals = counts.sum(axis=-1)
    got = entropy_from_counts(counts, totals)
    want = _mass_entropy(counts / totals[..., None])
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.all(got[::7] == 0.0)
    for dtype in (np.int32, np.int64):
        assert np.array_equal(entropy_from_counts(counts.astype(dtype), totals), got)


_FIXED_POINT_TOTALS = (1, 2, 78, 10**4, 10**6)


def _count_rows(total, rng):
    """Count rows over 1,000 bins summing to ``total``: one occupied bin at
    either end, then even and skewed spreads over 2, 18 and 1,000 bins."""
    rows = np.zeros((2, 1000), dtype=np.int64)
    rows[0, 0] = rows[1, -1] = total
    spreads = [rows]
    for n_bins in (2, 18, 1000):
        for p in (np.full(n_bins, 1 / n_bins), rng.dirichlet(np.full(n_bins, 0.3))):
            spread = np.zeros((1, 1000), dtype=np.int64)
            spread[0, :n_bins] = rng.multinomial(total, p)
            spreads.append(spread)
    return np.concatenate(spreads)


def test_fixed_point_entropy_within_float_formula():
    # Each total alone, then all of them in one call, where the fixed-point
    # scale is set by the largest and is coarsest for the small totals.
    rng = np.random.default_rng(41)
    rows = {total: _count_rows(total, rng) for total in _FIXED_POINT_TOTALS}
    mixed = entropy_from_counts(
        np.concatenate(list(rows.values())),
        np.repeat(_FIXED_POINT_TOTALS, [len(r) for r in rows.values()]),
    )
    at = 0
    for total, counts in rows.items():
        want = _mass_entropy(counts / total)
        for got in (entropy_from_counts(counts, total), mixed[at : at + len(counts)]):
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.all(got >= 0.0)
            assert got[0] == got[1] == 0.0  # one occupied bin
            assert np.all((got == 0.0) == (counts.max(axis=1) == total))
        at += len(counts)


def test_fixed_point_table_cannot_overflow_at_largest_total():
    # The scale is the largest with F(T) = T ln T * 2**q < 2**62; no window
    # of total T sums its terms above F(T) plus half a unit per bin, so
    # int64 sums and F(T) - S stay exact and H >= 0.
    total = _FIXED_POINT_TOTALS[-1]
    table, q = _c_log_c_table(total)
    assert table.dtype == np.int64 and len(table) == total + 1
    assert 2**61 <= table[-1] < 2**62
    assert table[0] == table[1] == 0 and np.all(np.diff(table[1:]) > 0)
    assert table[-1] == round(math.ldexp(total * math.log(total), q))
    counts = _count_rows(total, np.random.default_rng(43))
    sums = table.take(counts).sum(axis=-1)
    assert np.all(sums <= table[-1]) and np.all(sums >= 0)
    assert _c_log_c_table(1)[0].tolist() == [0, 0]


def test_window_entropy_constant_slice():
    r = make_returns([0.01] * 10)
    assert window_entropy(r, range(0, 10), BinningSpec(8)) == 0.0


def test_window_entropy_one_per_bin():
    n = 10
    r = make_returns(np.arange(n) + 0.5)
    h = window_entropy(r, range(0, n), BinningSpec(n, lo=0.0, hi=float(n)))
    assert h == pytest.approx(math.log(n), abs=1e-12)


def test_window_entropy_matches_two_pass_oracle():
    rng = np.random.default_rng(21)
    vals = rng.normal(0, 0.01, 100)
    r = make_returns(vals)
    for spec in (BinningSpec(17), BinningSpec(17, lo=-0.03, hi=0.03)):
        got = window_entropy(r, range(0, 100), spec)
        want = _entropy_oracle(vals.tolist(), 17, spec.lo, spec.hi)
        assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    length=st.integers(2, 300),
    n_bins=st.integers(1, 40),
    levels=st.sampled_from([2, 5, 1000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_entropy_bits_equal_one_window_spectrum(length, n_bins, levels, seed):
    # The spectrum of one sequence of one window (steps 0, base_length the
    # window's length) holds the same window's entropy; its fixed-point
    # scale is set by the largest total, here the window's length.
    vals = np.random.default_rng(seed).integers(0, levels, length) / 100.0
    r = make_returns(vals)
    spec = BinningSpec(n_bins)
    table = spectra_for_series(r, WindowSequenceSpec(length), spec)
    assert window_entropy(r, range(0, length), spec) == table.values[0, 0]


@settings(max_examples=150)
@given(
    n_bins=st.integers(1, 64),
    seed=st.integers(0, 10_000),
)
def test_entropy_bounds(n_bins, seed):
    rng = np.random.default_rng(seed)
    raw = rng.random(n_bins) + 1e-9
    masses = raw / raw.sum()
    dist = BinnedDistribution(BinningSpec(n_bins, lo=0.0, hi=1.0), 0.0, 1.0, masses, 10)
    h = shannon_entropy(dist)
    assert -1e-12 <= h <= math.log(max(n_bins, 1)) + 1e-12


def test_entropy_invariant_under_mass_permutation():
    rng = np.random.default_rng(4)
    raw = rng.random(12)
    masses = raw / raw.sum()
    spec = BinningSpec(12, lo=0.0, hi=1.0)
    h1 = shannon_entropy(BinnedDistribution(spec, 0.0, 1.0, masses, 5))
    h2 = shannon_entropy(BinnedDistribution(spec, 0.0, 1.0, masses[::-1].copy(), 5))
    perm = rng.permutation(masses)
    h3 = shannon_entropy(BinnedDistribution(spec, 0.0, 1.0, perm, 5))
    assert h1 == pytest.approx(h2, abs=1e-12)
    assert h1 == pytest.approx(h3, abs=1e-12)


@settings(max_examples=100)
@given(seed=st.integers(0, 10_000), n_bins=st.integers(2, 32))
def test_merging_bins_never_increases_entropy(seed, n_bins):
    rng = np.random.default_rng(seed)
    raw = rng.random(n_bins)
    masses = raw / raw.sum()
    spec = BinningSpec(n_bins, lo=0.0, hi=1.0)
    h = shannon_entropy(BinnedDistribution(spec, 0.0, 1.0, masses, 9))
    i = int(rng.integers(0, n_bins - 1))
    merged = np.concatenate([masses[:i], [masses[i] + masses[i + 1]], masses[i + 2 :]])
    h_merged = shannon_entropy(
        BinnedDistribution(BinningSpec(n_bins - 1, lo=0.0, hi=1.0), 0.0, 1.0, merged, 9)
    )
    assert h_merged <= h + 1e-12


@settings(max_examples=100)
@given(
    ks=st.lists(st.integers(0, 100_000), min_size=2, max_size=40, unique=True),
    a=st.one_of(st.floats(0.01, 50.0), st.floats(-50.0, -0.01)),
    b=st.floats(-100.0, 100.0),
)
def test_per_window_entropy_affine_invariant(ks, a, b):
    vals = np.sin(np.array(ks, dtype=float))
    spec = BinningSpec(6)
    h1 = shannon_entropy(bin_returns(vals, spec))
    h2 = shannon_entropy(bin_returns(a * vals + b, spec))
    assert h1 == pytest.approx(h2, abs=1e-9)


# ----------------------------------------------------------------------
# pmf snapshots
# ----------------------------------------------------------------------

def _intraday_returns(rng, n_days, bars_per_day=20, sigma=0.001):
    vals = rng.normal(0, sigma, n_days * bars_per_day)
    return make_returns(vals, frequency=Frequency.FIVE_MINUTE, bars_per_day=bars_per_day)


def test_pmf_snapshot_shared_binning():
    rng = np.random.default_rng(8)
    r = _intraday_returns(rng, 16)
    day = str(np.unique(r.dates())[-1])
    snap = pmf_snapshot(r, day, preceding_days=14)
    assert snap.day_dist.lo == snap.span_dist.lo
    assert snap.day_dist.hi == snap.span_dist.hi
    assert snap.day_dist.n_bins == snap.span_dist.n_bins
    assert abs(snap.day_dist.masses.sum() - 1.0) < 1e-12


def test_pmf_snapshot_day_equals_span_when_no_preceding():
    rng = np.random.default_rng(9)
    r = _intraday_returns(rng, 3)
    day = str(np.unique(r.dates())[-1])
    snap = pmf_snapshot(r, day, preceding_days=0)
    assert np.array_equal(snap.day_dist.masses, snap.span_dist.masses)
    assert snap.day_entropy == snap.span_entropy


def test_pmf_snapshot_entropies_bits_equal_one_window_spectra():
    rng = np.random.default_rng(12)
    r = _intraday_returns(rng, 6)
    days = np.unique(r.dates())
    snap = pmf_snapshot(r, str(days[-1]), preceding_days=4)
    spec = snap.span_dist.spec
    for values, h in ((r.values[r.dates() == days[-1]], snap.day_entropy),
                      (r.values[r.dates() >= days[-5]], snap.span_entropy)):
        one = make_returns(values)
        table = spectra_for_series(one, WindowSequenceSpec(len(values)), spec)
        assert h == table.values[0, 0]


def test_pmf_snapshot_constant_returns():
    r = make_returns([0.0] * 60, frequency=Frequency.FIVE_MINUTE, bars_per_day=20)
    day = str(np.unique(r.dates())[-1])
    snap = pmf_snapshot(r, day, preceding_days=2)
    assert snap.day_entropy == 0.0 and snap.span_entropy == 0.0


def test_pmf_snapshot_out_of_range():
    rng = np.random.default_rng(10)
    r = _intraday_returns(rng, 5)
    with pytest.raises(OutOfRange):
        pmf_snapshot(r, "2030-01-01", preceding_days=2)
    day = str(np.unique(r.dates())[-1])
    with pytest.raises(OutOfRange):
        pmf_snapshot(r, day, preceding_days=30)
