import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from entroscope import (
    BinningSpec,
    DegenerateDenominator,
    Frequency,
    Metric,
    TooShort,
    WindowSlice,
    compare_windows,
    pct_difference,
    summarize_values,
)
from entroscope.returns import slice_values

from _fixtures import make_returns


def test_summarize_basic_123():
    # count 3 < 4, so pad with a symmetric pattern instead
    s = summarize_values([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
    assert s.mean == 2.0
    assert s.variance == pytest.approx(0.8, abs=1e-15)
    assert s.std_dev == pytest.approx(math.sqrt(0.8), abs=1e-15)
    assert s.minimum == 1.0 and s.maximum == 3.0


def test_summarize_mean_var_small_sample():
    s = summarize_values([1.0, 2.0, 3.0, 2.0])
    assert s.mean == 2.0
    assert s.variance == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_symmetric_sample_has_zero_skewness():
    s = summarize_values([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    assert s.skewness == 0.0


def test_quartiles_linear_interpolation():
    vals = [1.0, 2.0, 3.0, 4.0]
    s = summarize_values(vals)

    def hand_quantile(sorted_vals, p):
        pos = (len(sorted_vals) - 1) * p
        lo, hi = math.floor(pos), math.ceil(pos)
        frac = pos - lo
        return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac

    assert s.q1 == pytest.approx(hand_quantile(vals, 0.25), abs=1e-12)
    assert s.median == pytest.approx(hand_quantile(vals, 0.50), abs=1e-12)
    assert s.q3 == pytest.approx(hand_quantile(vals, 0.75), abs=1e-12)


def test_moments_match_scipy_bias_corrected():
    rng = np.random.default_rng(77)
    x = rng.normal(0.0, 2.0, 500) ** 3  # strongly non-normal
    s = summarize_values(x)
    assert s.skewness == pytest.approx(sps.skew(x, bias=False), abs=1e-10)
    assert s.kurtosis == pytest.approx(sps.kurtosis(x, fisher=True, bias=False), abs=1e-10)


def test_seeded_normal_moments_within_monte_carlo_bounds():
    rng = np.random.default_rng(42)
    s = summarize_values(rng.standard_normal(100_000))
    assert abs(s.skewness) < 0.05
    assert abs(s.kurtosis) < 0.1


def test_summarize_too_short():
    with pytest.raises(TooShort):
        summarize_values([1.0, 2.0, 3.0])


def test_summarize_constant_sample():
    s = summarize_values([2.0] * 8)
    assert s.variance == 0.0
    assert s.skewness == 0.0 and s.kurtosis == 0.0


@settings(max_examples=80)
@given(st.lists(st.floats(-100, 100), min_size=4, max_size=40), st.randoms())
def test_summarize_permutation_invariant(vals, rnd):
    shuffled = list(vals)
    rnd.shuffle(shuffled)
    a = summarize_values(vals)
    b = summarize_values(shuffled)
    for field in ("mean", "variance", "q1", "median", "q3", "skewness", "kurtosis"):
        x, y = getattr(a, field), getattr(b, field)
        assert x == pytest.approx(y, rel=1e-9, abs=1e-12)


def test_affine_scaling_behaviour():
    rng = np.random.default_rng(9)
    x = rng.normal(0, 0.01, 300)
    c = 7.5
    a = summarize_values(x)
    b = summarize_values(c * x)
    assert b.std_dev == pytest.approx(c * a.std_dev, rel=1e-10)
    assert b.skewness == pytest.approx(a.skewness, abs=1e-10)
    assert b.kurtosis == pytest.approx(a.kurtosis, abs=1e-10)


# ----------------------------------------------------------------------
# pct_difference
# ----------------------------------------------------------------------

def test_pct_difference_published_entropy_rows():
    # S&P 500 row: printed 28.57%, inputs rounded to 3 decimals
    assert abs(pct_difference(1.465, 1.099)) * 100 == pytest.approx(28.55, abs=0.01)
    assert abs(abs(pct_difference(1.465, 1.099)) * 100 - 28.57) < 0.15
    # DJIA row: printed 1.36%
    assert abs(pct_difference(1.177, 1.161)) * 100 == pytest.approx(1.369, abs=0.01)
    assert abs(abs(pct_difference(1.177, 1.161)) * 100 - 1.36) < 0.15


def test_pct_difference_identical_inputs():
    for x in (0.3, 1.0, -2.5):
        assert pct_difference(x, x) == 0.0


def test_pct_difference_degenerate():
    with pytest.raises(DegenerateDenominator):
        pct_difference(1.0, -1.0)


@settings(max_examples=100)
@given(
    st.floats(-1e6, 1e6).filter(lambda x: abs(x) > 1e-9),
    st.floats(-1e6, 1e6).filter(lambda x: abs(x) > 1e-9),
)
def test_pct_difference_antisymmetric(a, b):
    if abs(a + b) < 1e-6:
        return
    assert pct_difference(a, b) == pytest.approx(-pct_difference(b, a), rel=1e-12)


# ----------------------------------------------------------------------
# compare_windows
# ----------------------------------------------------------------------

def test_compare_identical_slices():
    vals = np.tile([0.01, -0.02, 0.005, 0.015], 5)
    r = make_returns(np.concatenate([vals, vals]))
    before = WindowSlice(0, 20)
    after = WindowSlice(20, 40)
    for metric in Metric:
        cmp = compare_windows(r, before, after, metric)
        assert cmp.pct_difference == 0.0


def test_compare_stddev_scale_ratio():
    rng = np.random.default_rng(3)
    n = 20_000
    vals = np.concatenate([rng.normal(0, 0.01, n), rng.normal(0, 0.02, n)])
    r = make_returns(vals, frequency=Frequency.FIVE_MINUTE)
    cmp = compare_windows(r, WindowSlice(0, n), WindowSlice(n, 2 * n), Metric.STD_DEV)
    assert cmp.pct_difference == pytest.approx(2.0 / 3.0, abs=0.02)


def test_compare_stddev_equals_summarize_and_needs_four_values():
    rng = np.random.default_rng(5)
    r = make_returns(rng.normal(0, 0.01, 50))
    before, after = WindowSlice(0, 20), WindowSlice(20, 50)
    cmp = compare_windows(r, before, after, Metric.STD_DEV)
    assert (cmp.before, cmp.after) == (
        summarize_values(slice_values(r, before)).std_dev,
        summarize_values(slice_values(r, after)).std_dev,
    )
    with pytest.raises(TooShort, match="got 3"):
        compare_windows(r, WindowSlice(0, 3), after, Metric.STD_DEV)


def test_compare_entropy_uniform_vs_single_bin():
    n = 8
    before_vals = np.arange(n) + 0.5
    after_vals = np.full(n, 0.5)
    r = make_returns(np.concatenate([before_vals, after_vals]))
    cmp = compare_windows(
        r,
        WindowSlice(0, n),
        WindowSlice(n, 2 * n),
        Metric.ENTROPY,
        binning=BinningSpec(n, lo=0.0, hi=float(n)),
    )
    assert cmp.before == pytest.approx(math.log(n), abs=1e-12)
    assert cmp.after == 0.0
    assert cmp.pct_difference == -2.0


@pytest.mark.parametrize("seed", [4, 5, 17, 19])
def test_compare_entropy_of_mirrored_windows_is_exactly_equal(seed):
    # -x puts x's counts in the mirrored bins of its per-window range. The
    # entropy comes from the counts, not from masses summed in bin order,
    # so both windows have the same bits and the difference prints as 0.
    x = np.random.default_rng(seed).normal(0, 0.01, 40)
    r = make_returns(np.concatenate([x, -x]))
    cmp = compare_windows(r, WindowSlice(0, 40), WindowSlice(40, 80), Metric.ENTROPY)
    assert cmp.before == cmp.after
    assert f"{cmp.pct_difference:.6f}" == "0.000000"


def test_compare_propagates_metric_name():
    r = make_returns(np.linspace(-0.01, 0.01, 40))
    cmp = compare_windows(r, WindowSlice(0, 20), WindowSlice(20, 40), Metric.STD_DEV)
    assert cmp.metric_name == "std_dev"


@pytest.mark.parametrize("metric, big, message", [
    # One 1e200 squares past the float range: the variance is inf.
    (Metric.STD_DEV, [1e200], "std_dev is not finite: before=0.00151694, after=inf"),
])
def test_compare_refuses_a_metric_past_the_float_range(metric, big, message):
    values = np.linspace(-0.005, 0.005, 40)
    values[30 : 30 + len(big)] = big
    r = make_returns(values)
    with pytest.raises(ValueError) as caught:
        compare_windows(r, WindowSlice(0, 20), WindowSlice(20, 40), metric)
    assert str(caught.value) == message


@pytest.mark.parametrize("metric", [Metric.ENTROPY, Metric.STD_DEV])
def test_compare_names_the_metric_whose_difference_is_undefined(metric):
    # Constant windows: both entropies and both deviations are 0.
    r = make_returns(np.zeros(40))
    with pytest.raises(DegenerateDenominator) as caught:
        compare_windows(r, WindowSlice(0, 20), WindowSlice(20, 40), metric)
    assert str(caught.value) == f"{metric.value}: midpoint of (0.0, 0.0) is zero"


def test_summarize_slice_bounds_checked():
    r = make_returns([0.01, 0.02, 0.03, 0.04])
    with pytest.raises(ValueError):
        summarize_values(slice_values(r, WindowSlice(0, 10)))
