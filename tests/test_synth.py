from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroscope import (
    Frequency,
    Shock,
    ShockShape,
    SynthSpec,
    generate,
    log_returns,
    parse_csv,
    serialize_csv,
    summarize_values,
)


def test_noise_free_path_is_pure_drift():
    spec = SynthSpec(seed=0, n_days=5, bars_per_day=10, drift=0.001, volatility=0.0)
    series, log = generate(spec)
    t = np.arange(50)
    assert np.allclose(series.closes, 100.0 * np.exp(0.001 * t), rtol=1e-12)
    assert series.closes[0] == 100.0
    assert log == []


def test_same_seed_is_byte_identical():
    spec = SynthSpec(seed=123, n_days=10, bars_per_day=78, volatility=0.001)
    a, _ = generate(spec)
    b, _ = generate(spec)
    assert a.closes.tobytes() == b.closes.tobytes()
    assert serialize_csv(a) == serialize_csv(b)


def test_daily_when_single_bar_per_day():
    series, _ = generate(SynthSpec(seed=5, n_days=30, bars_per_day=1, volatility=0.01))
    assert series.frequency is Frequency.DAILY
    assert len(series) == 30
    assert str(series.timestamps[0]) == "2025-01-02T00:00:00"


def test_intraday_timestamps_cover_session():
    series, _ = generate(SynthSpec(seed=5, n_days=2, bars_per_day=78, volatility=0.001))
    assert series.frequency is Frequency.FIVE_MINUTE
    assert str(series.timestamps[0]) == "2025-01-02T09:30:00"
    assert str(series.timestamps[77]) == "2025-01-02T15:55:00"
    assert str(series.timestamps[78]) == "2025-01-03T09:30:00"


def test_single_bar_shock_is_additive():
    base_spec = SynthSpec(seed=9, n_days=10, bars_per_day=78, drift=1e-5, volatility=0.001)
    shock = Shock(day_index=5, magnitude_sigma=10.0, shape=ShockShape.SINGLE_BAR)
    shocked_spec = SynthSpec(seed=9, n_days=10, bars_per_day=78, drift=1e-5,
                             volatility=0.001, shocks=(shock,))
    base, _ = generate(base_spec)
    spiked, log = generate(shocked_spec)

    t = 5 * 78 + 39  # middle bar of day 5
    assert log[0].timestamp == spiked.timestamps[t]
    diff = np.log(spiked.closes[1:] / spiked.closes[:-1]) - np.log(
        base.closes[1:] / base.closes[:-1]
    )
    assert diff[t - 1] == pytest.approx(10.0 * 0.001, abs=1e-12)
    mask = np.ones(len(diff), dtype=bool)
    mask[t - 1] = False
    assert np.max(np.abs(diff[mask])) < 1e-12


def test_dispersed_day_scales_whole_day():
    base_spec = SynthSpec(seed=11, n_days=6, bars_per_day=20, volatility=0.001)
    shock = Shock(day_index=3, magnitude_sigma=10.0, shape=ShockShape.DISPERSED_DAY)
    shocked_spec = SynthSpec(seed=11, n_days=6, bars_per_day=20, volatility=0.001,
                             shocks=(shock,))
    base, _ = generate(base_spec)
    spiked, log = generate(shocked_spec)

    r_base = log_returns(base).values
    r_spiked = log_returns(spiked).values
    day = slice(3 * 20 - 1, 4 * 20 - 1)  # increments landing on day 3 bars
    assert np.allclose(r_spiked[day], 10.0 * r_base[day], atol=1e-12)
    assert log[0].timestamp == spiked.timestamps[3 * 20]


def test_mean_log_return_converges_to_drift():
    n_days, bars = 1283, 78  # just above 1e5 bars
    mu, sigma = 5e-5, 0.001
    series, _ = generate(SynthSpec(seed=21, n_days=n_days, bars_per_day=bars,
                                   drift=mu, volatility=sigma))
    r = log_returns(series).values
    assert len(r) >= 100_000 - 1
    assert abs(r.mean() - mu) < 4 * sigma / np.sqrt(len(r))


def test_kurtosis_flat_without_shock_elevated_with():
    quiet, _ = generate(SynthSpec(seed=31, n_days=1283, bars_per_day=78, volatility=0.001))
    s = summarize_values(log_returns(quiet).values)
    assert -0.1 < s.kurtosis < 0.1

    shock = Shock(day_index=12, magnitude_sigma=10.0, shape=ShockShape.SINGLE_BAR)
    short, _ = generate(SynthSpec(seed=31, n_days=20, bars_per_day=78, volatility=0.001,
                                  shocks=(shock,)))
    s_short = summarize_values(log_returns(short).values)
    assert s_short.kurtosis > 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(seed=1, n_days=0, bars_per_day=78)
    with pytest.raises(ValueError):
        SynthSpec(seed=1, n_days=5, bars_per_day=78, volatility=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(seed=1, n_days=5, bars_per_day=78,
                  shocks=(Shock(5, 10.0, ShockShape.SINGLE_BAR),))


def test_last_bar_before_midnight_is_accepted():
    series, _ = generate(SynthSpec(seed=1, n_days=2, bars_per_day=174))
    assert str(series.timestamps[173]) == "2025-01-02T23:55:00"
    assert str(series.timestamps[174]) == "2025-01-03T09:30:00"


@pytest.mark.parametrize("bars", [175, 200, 300])
def test_bars_past_midnight_rejected(bars):
    # 174 five-minute bars from 09:30 end at 23:55; one more lands on the
    # next date, and more still collide with that date's own bars.
    with pytest.raises(ValueError, match=f"^bars_per_day must be at most 174, got {bars}$"):
        SynthSpec(seed=1, n_days=3, bars_per_day=bars)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["drift", "volatility"])
def test_non_finite_parameter_rejected_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        SynthSpec(seed=1, n_days=3, bars_per_day=2, **{name: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_shock_magnitude_rejected(value):
    shock = Shock(1, value, ShockShape.DISPERSED_DAY)
    with pytest.raises(ValueError, match="^shock magnitude_sigma must be finite"):
        SynthSpec(seed=1, n_days=3, bars_per_day=2, shocks=(shock,))


@pytest.mark.parametrize("n_days", [1, 3])
@pytest.mark.parametrize("shape", list(ShockShape))
def test_shock_on_day_0_of_a_daily_series_is_refused(shape, n_days):
    # Day 0's one bar is the start price and has no return to shock.
    with pytest.raises(ValueError, match="^shock day 0 of a daily series has no return to shock$"):
        SynthSpec(seed=1, n_days=n_days, bars_per_day=1, shocks=(Shock(0, 5.0, shape),))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bars_per_day=st.sampled_from([1, 2, 78]),
    n_days=st.integers(2, 5),
    shape=st.sampled_from(list(ShockShape)),
    magnitude=st.floats(2.0, 20.0),
    data=st.data(),
)
def test_shock_changes_returns_of_its_day_only(
    seed, bars_per_day, n_days, shape, magnitude, data
):
    # Against the same seed's unshocked run: the logged bar's return moves
    # beyond rounding, and no return into a bar of another day moves.
    day = data.draw(st.integers(1 if bars_per_day == 1 else 0, n_days - 1))
    quiet = SynthSpec(seed=seed, n_days=n_days, bars_per_day=bars_per_day)
    base, _ = generate(quiet)
    shocked, log = generate(replace(quiet, shocks=(Shock(day, magnitude, shape),)))
    returns = log_returns(shocked)
    moved = np.abs(returns.values - log_returns(base).values) > 1e-12
    days = returns.timestamps.astype("datetime64[D]")
    assert not moved[days != np.datetime64("2025-01-02") + day].any()
    assert [rec.shape for rec in log] == [shape]
    logged = np.searchsorted(returns.timestamps, log[0].timestamp)
    assert returns.timestamps[logged] == log[0].timestamp and moved[logged]


def test_emitted_csv_flows_through_parser():
    series, _ = generate(SynthSpec(seed=2, n_days=3, bars_per_day=12, volatility=0.001))
    parsed, diag = parse_csv(serialize_csv(series), Frequency.FIVE_MINUTE, "synth")
    assert diag.dropped == 0
    assert len(parsed) == len(series)
    assert np.allclose(parsed.closes, series.closes, atol=5e-7)
