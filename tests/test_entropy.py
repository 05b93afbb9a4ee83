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
    WindowSlice,
    bin_returns,
    pmf_snapshot,
    shannon_entropy,
    velleman_bins,
    window_entropy,
)
from entroscope.entropy import entropy_from_counts

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
    with pytest.raises(ValueError):
        BinningSpec(4, lo=1.0)
    with pytest.raises(ValueError):
        BinningSpec(4, lo=1.0, hi=1.0)
    assert BinningSpec(4, lo=0.0, hi=2.0).bin_width == 0.5
    assert BinningSpec(4).bin_width is None


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


def test_entropy_from_counts_table_agrees_with_masses():
    # Integer counts take c ln c from a table, masses from a masked log.
    rng = np.random.default_rng(23)
    counts = rng.integers(0, 6, size=(300, 3, 9)) * rng.integers(0, 2, size=(300, 3, 9))
    counts[:, :, 0] += 1  # no empty window
    counts[::7] = 0
    counts[::7, :, 4] = rng.integers(1, 200, size=(len(counts[::7]), 3))  # one value
    totals = counts.sum(axis=-1)
    got = entropy_from_counts(counts, totals)
    want = entropy_from_counts(counts / totals[..., None], 1.0)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.all(got[::7] == 0.0)
    for dtype in (np.int32, np.int64):
        assert np.array_equal(entropy_from_counts(counts.astype(dtype), totals), got)


def test_window_entropy_constant_slice():
    r = make_returns([0.01] * 10)
    assert window_entropy(r, WindowSlice(0, 10), BinningSpec(8)) == 0.0


def test_window_entropy_one_per_bin():
    n = 10
    r = make_returns(np.arange(n) + 0.5)
    h = window_entropy(r, WindowSlice(0, n), BinningSpec(n, lo=0.0, hi=float(n)))
    assert h == pytest.approx(math.log(n), abs=1e-12)


def test_window_entropy_matches_two_pass_oracle():
    rng = np.random.default_rng(21)
    vals = rng.normal(0, 0.01, 100)
    r = make_returns(vals)
    for spec in (BinningSpec(17), BinningSpec(17, lo=-0.03, hi=0.03)):
        got = window_entropy(r, WindowSlice(0, 100), spec)
        want = _entropy_oracle(vals.tolist(), 17, spec.lo, spec.hi)
        assert got == pytest.approx(want, abs=1e-12)


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
