import math
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from entroscope import (
    BinningSpec,
    DegenerateDenominator,
    Frequency,
    ReturnSeries,
    Shock,
    ShockShape,
    SynthSpec,
    TooShort,
    bracket_windows,
    compare_windows,
    generate,
    log_returns,
    pct_difference,
    summarize_values,
    velleman_bins,
    window_entropy,
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
    comparisons = compare_windows(r, range(0, 20), range(20, 40))
    assert [cmp.pct_difference for cmp in comparisons] == [0.0, 0.0]


def test_compare_stddev_scale_ratio():
    rng = np.random.default_rng(3)
    n = 20_000
    vals = np.concatenate([rng.normal(0, 0.01, n), rng.normal(0, 0.02, n)])
    r = make_returns(vals, frequency=Frequency.FIVE_MINUTE)
    _, cmp = compare_windows(r, range(0, n), range(n, 2 * n))
    assert cmp.pct_difference == pytest.approx(2.0 / 3.0, abs=0.02)


def test_compare_stddev_equals_summarize_and_needs_four_values():
    rng = np.random.default_rng(5)
    r = make_returns(rng.normal(0, 0.01, 50))
    before, after = range(0, 20), range(20, 50)
    _, cmp = compare_windows(r, before, after)
    assert (cmp.before, cmp.after) == (
        summarize_values(slice_values(r, before)).std_dev,
        summarize_values(slice_values(r, after)).std_dev,
    )
    with pytest.raises(TooShort, match="got 3"):
        compare_windows(r, range(0, 3), after)


def test_compare_entropy_uniform_vs_single_bin():
    n = 8
    before_vals = np.arange(n) + 0.5
    after_vals = np.full(n, 0.5)
    r = make_returns(np.concatenate([before_vals, after_vals]))
    cmp, _ = compare_windows(
        r,
        range(0, n),
        range(n, 2 * n),
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
    cmp, _ = compare_windows(r, range(0, 40), range(40, 80))
    assert cmp.before == cmp.after
    assert f"{cmp.pct_difference:.6f}" == "0.000000"


def test_compare_propagates_metric_name():
    r = make_returns(np.linspace(-0.01, 0.01, 40))
    comparisons = compare_windows(r, range(0, 20), range(20, 40))
    assert [cmp.metric_name for cmp in comparisons] == [m.name.lower() for m in Metric]


class Metric(Enum):
    """The position of each metric in the pair that ``compare_windows``
    returns."""

    ENTROPY = 0
    STD_DEV = 1


@pytest.mark.parametrize("metric, big, message", [
    # One 1e200 squares past the float range: the variance is inf.
    (Metric.STD_DEV, [1e200], "std_dev is not finite: before=0.00151694, after=inf"),
])
def test_compare_refuses_a_metric_past_the_float_range(metric, big, message):
    values = np.linspace(-0.005, 0.005, 40)
    values[30 : 30 + len(big)] = big
    r = make_returns(values)
    with pytest.raises(ValueError) as caught:
        compare_windows(r, range(0, 20), range(20, 40))
    assert str(caught.value) == message


_UNDEFINED = {
    # Constant windows: both entropies and both deviations are 0, and the
    # entropy is checked first.
    Metric.ENTROPY: np.zeros(40),
    # Squares of 1e-300 and 2e-300 underflow to 0, so both deviations are 0,
    # while each window holds two values: H is ln 2 on both.
    Metric.STD_DEV: np.tile([1e-300, 2e-300], 20),
}


@pytest.mark.parametrize("metric", list(Metric))
def test_compare_names_the_metric_whose_difference_is_undefined(metric):
    r = make_returns(_UNDEFINED[metric])
    if metric is Metric.STD_DEV:
        for window in (range(0, 20), range(20, 40)):
            h = window_entropy(r, window, BinningSpec(velleman_bins(20)))
            assert h == pytest.approx(math.log(2), abs=1e-12)
    with pytest.raises(DegenerateDenominator) as caught:
        compare_windows(r, range(0, 20), range(20, 40))
    assert str(caught.value) == f"{metric.name.lower()}: midpoint of (0.0, 0.0) is zero"


def _scaled(returns, scale):
    return ReturnSeries(returns.instrument_id, returns.frequency, returns.timestamps,
                        returns.values * scale)


@pytest.mark.parametrize("scale", [4.0, 0.25, 2.0**-20])
def test_compare_entropy_does_not_see_amplitude(scale):
    # Each window is binned over its own range, so scaling every return
    # moves no value to another bin: H keeps its bits and only sigma sees
    # the amplitude. A power of two scales exactly, so sigma scales exactly
    # and its difference keeps its bits too. The windows are the README's
    # compare.csv example: entropy -53.8% while sigma rises 78.4%.
    shock = Shock(25, 6.0, ShockShape.DISPERSED_DAY)
    series, _ = generate(SynthSpec(seed=3, n_days=40, bars_per_day=78, shocks=(shock,)))
    r = log_returns(series)
    before, after = bracket_windows(r, "2025-01-27", 10)
    entropy, std_dev = compare_windows(r, before, after)
    assert (f"{entropy.pct_difference:.6f}", f"{std_dev.pct_difference:.6f}") == (
        "-0.537847", "0.784374"
    )
    scaled_entropy, scaled_std_dev = compare_windows(_scaled(r, scale), before, after)
    assert scaled_entropy == entropy
    assert (scaled_std_dev.before, scaled_std_dev.after) == (
        std_dev.before * scale, std_dev.after * scale
    )
    assert scaled_std_dev.pct_difference == std_dev.pct_difference


def test_summarize_slice_bounds_checked():
    r = make_returns([0.01, 0.02, 0.03, 0.04])
    with pytest.raises(ValueError):
        summarize_values(slice_values(r, range(0, 10)))


@pytest.mark.parametrize("before, after, message", [
    (range(4, 4), range(4, 20), "invalid slice [4, 4)"),
    (range(0, 20), range(20, 41), "slice [20, 41) exceeds series length 40"),
], ids=["empty before", "after past the end"])
def test_compare_refuses_a_bad_window_with_its_slice_text(before, after, message):
    r = make_returns(np.random.default_rng(3).normal(0, 0.01, 40))
    with pytest.raises(ValueError) as caught:
        compare_windows(r, before, after)
    assert str(caught.value) == message
