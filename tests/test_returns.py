import dataclasses
import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entroscope import (
    Frequency,
    OutOfRange,
    PriceSeries,
    ReturnSeries,
    TooShort,
    bracket_windows,
    log_returns,
    nominal_returns,
)

from entroscope.cli import _bars_per_day, _restrict_dates
from entroscope.codec import runs
from entroscope.entropy import pmf_snapshot
from entroscope.ingest import aggregate_to_daily
from entroscope.returns import slice_values

import _day_oracle as oracle
from _fixtures import make_daily, make_returns


def test_log_returns_identity_ratio():
    assert log_returns(make_daily([100.0, 100.0])).values.tolist() == [0.0]


def test_log_returns_frozen_value():
    # ln(1.05), high-precision reference value
    r = log_returns(make_daily([100.0, 105.0]))
    assert abs(r.values[0] - 0.048790164169432) < 1e-15


def test_log_returns_telescope():
    r = log_returns(make_daily([100.0, 105.0, 100.0]))
    assert abs(r.values.sum()) < 1e-15


def test_nominal_returns_examples():
    assert nominal_returns(make_daily([100.0, 105.0])).values[0] == pytest.approx(0.05, abs=1e-15)
    assert nominal_returns(make_daily([100.0, 100.0])).values.tolist() == [0.0]
    assert nominal_returns(make_daily([50.0, 25.0])).values.tolist() == [-0.5]


def test_returns_too_short():
    with pytest.raises(TooShort):
        log_returns(make_daily([100.0]))
    with pytest.raises(TooShort):
        nominal_returns(make_daily([100.0]))


def test_returns_timestamped_at_later_price():
    series = make_daily([100.0, 101.0, 102.0])
    r = log_returns(series)
    assert len(r) == len(series) - 1
    assert np.array_equal(r.timestamps, series.timestamps[1:])


@settings(max_examples=100)
@given(st.lists(st.floats(50.0, 200.0), min_size=2, max_size=50))
def test_nominal_equals_exp_log_minus_one(closes):
    series = make_daily(closes)
    nominal = nominal_returns(series).values
    via_log = np.exp(log_returns(series).values) - 1.0
    assert np.all(np.abs(nominal - via_log) < 1e-12)


@pytest.mark.parametrize("order", ["descending", "repeated"])
def test_return_series_timestamps_must_increase(order):
    # Window selection reads the stamps as ascending: a descending series
    # would put every anchor after the "last" observation.
    r = make_returns(np.full(60, 0.01))
    ts = r.timestamps[::-1] if order == "descending" else np.repeat(r.timestamps[:30], 2)
    with pytest.raises(ValueError, match="strictly increasing"):
        ReturnSeries("t", Frequency.DAILY, ts, r.values)


def _with_values(r, values):
    return ReturnSeries(r.instrument_id, r.frequency, r.timestamps, values)


@pytest.mark.parametrize("make, message", [
    (lambda r: _with_values(r, r.values[:-1]),
     "timestamps and values must be 1-d arrays of equal length"),
    (lambda r: _with_values(r, np.where(np.arange(len(r)) == 3, np.inf, r.values)),
     "returns must be finite"),
    (lambda r: slice_values(r, range(4, 4)), "invalid slice [4, 4)"),
    (lambda r: slice_values(r, range(-1, 3)), "invalid slice [-1, 3)"),
    (lambda r: slice_values(r, range(0, 6, 2)), "invalid slice [0, 6)"),
    (lambda r: slice_values(r, range(4, 11)), "slice [4, 11) exceeds series length 10"),
    (lambda r: bracket_windows(r, "2025-01-05", 0), "trading_days must be positive"),
], ids=["lengths", "infinite value", "empty slice", "negative start", "stepped slice",
        "past the end", "bracket_windows days"])
def test_invalid_window_input_is_refused(make, message):
    with pytest.raises(ValueError) as caught:
        make(make_returns(np.full(10, 0.01)))
    assert str(caught.value) == message


_STAMPS = np.datetime64("2025-01-02", "s") + np.arange(3) * np.timedelta64(1, "D")


def _price(timestamps, values):
    return PriceSeries("t", Frequency.DAILY, timestamps, values)


def _return(timestamps, values):
    return ReturnSeries("t", Frequency.DAILY, timestamps, values)


@pytest.mark.parametrize("make, field, own", [
    (_price, "closes", [
        ([1.0, 0.0, 3.0], "closes must be finite and positive"),
        ([1.0, -np.inf, 3.0], "closes must be finite and positive"),
    ]),
    (_return, "values", [([0.1, np.nan, -0.2], "returns must be finite")]),
], ids=["PriceSeries", "ReturnSeries"])
def test_series_share_the_stamp_rules_and_keep_their_own(make, field, own):
    # One shape and one order rule for both classes, with the class's field
    # named; then each class's rule for its values.
    shape = f"timestamps and {field} must be 1-d arrays of equal length"
    cases = [
        (_STAMPS, [1.0, 2.0], shape),
        (_STAMPS[None, :], [[1.0, 2.0, 3.0]], shape),
        (_STAMPS[:1], 1.0, shape),
        (_STAMPS[::-1], [1.0, 2.0, 3.0], "timestamps must be strictly increasing"),
        (_STAMPS[[0, 1, 1]], [1.0, 2.0, 3.0], "timestamps must be strictly increasing"),
    ] + [(_STAMPS, values, message) for values, message in own]
    for timestamps, values, message in cases:
        with pytest.raises(ValueError) as caught:
            make(timestamps, values)
        assert str(caught.value) == message
    series = make(_STAMPS.astype("datetime64[D]"), [1, 2, 3])
    assert series.timestamps.dtype == np.dtype("datetime64[s]")
    assert getattr(series, field).dtype == np.float64
    assert len(series) == 3


@pytest.mark.parametrize("make", [
    lambda: make_daily([]),
    lambda: make_daily([100.0, 101.0, 99.0]),
    lambda: make_returns(np.full(200, 0.01), frequency=Frequency.FIVE_MINUTE, bars_per_day=7),
    lambda: _restrict_dates(make_returns(np.full(60, 0.01), frequency=Frequency.FIVE_MINUTE,
                                         bars_per_day=9), "2025-01-03", "2025-01-05"),
], ids=["empty prices", "daily prices", "intraday returns", "restricted returns"])
def test_days_is_the_run_index_of_the_dates_taken_once(make):
    series = make()
    days, bounds = series.days
    want_days, want_bounds = runs(series.dates())
    assert days.tolist() == want_days.tolist() and bounds.tolist() == want_bounds.tolist()
    assert series.days is series.days  # the series is immutable: its index is kept
    if len(series) == 0:
        assert bounds.tolist() == [0] and len(days) == 0


def test_values_invariant_under_time_shift():
    closes = [100.0, 103.0, 99.0, 104.0]
    a = log_returns(make_daily(closes, start="2025-01-02"))
    b = log_returns(make_daily(closes, start="2031-07-15"))
    assert np.array_equal(a.values, b.values)


# ----------------------------------------------------------------------
# window selection
# ----------------------------------------------------------------------

@settings(max_examples=100)
@given(st.lists(st.integers(-3, 40), max_size=60))
@example([])
def test_runs_of_ascending_dates_equal_unique(offsets):
    dates = np.datetime64("2025-01-02") + np.sort(offsets).astype("timedelta64[D]")
    days, bounds = runs(dates)
    want_days, want_first, want_counts = np.unique(dates, return_index=True, return_counts=True)
    assert days.dtype == dates.dtype
    assert np.array_equal(days, want_days)
    assert np.array_equal(bounds, np.append(want_first, len(dates)))
    assert np.array_equal(np.diff(bounds), want_counts)


_RUNS = {
    # Closes with repeats, unsorted: a value that comes back starts a new run.
    "unsorted floats": (
        np.array([101.5, 101.5, 99.25, 101.5, 101.5, 101.5, 0.5, 99.25, 99.25]),
        [101.5, 99.25, 101.5, 0.5, 99.25], [0, 2, 3, 6, 7, 9],
    ),
    "months": (
        np.array(["2025-01-31T23:59:59", "2025-01-31T23:59:59", "2025-02-01T00:00:00",
                  "2025-04-30T09:30:00", "2026-04-01T00:00:00"], dtype="datetime64[s]")
        .astype("datetime64[M]"),
        np.array(["2025-01", "2025-02", "2025-04", "2026-04"], dtype="datetime64[M]"),
        [0, 2, 3, 4, 5],
    ),
}


@pytest.mark.parametrize("case", list(_RUNS))
def test_runs_cases(case):
    values, want_values, want_bounds = _RUNS[case]
    run_values, bounds = runs(values)
    assert run_values.dtype == values.dtype
    assert np.array_equal(run_values, want_values)
    assert bounds.tolist() == want_bounds


def _runs_oracle(values):
    """Run values and bounds by walking the values one at a time."""
    run_values, bounds = [], []
    for i, value in enumerate(values):
        if not bounds or value != run_values[-1]:
            run_values.append(value)
            bounds.append(i)
    return run_values, bounds + [len(values)]


@settings(max_examples=200)
@given(st.lists(st.integers(0, 2), max_size=40))
@example([])
@example([1])
@example([2] * 7)
@example([0, 1] * 5)
def test_runs_equal_loop_oracle(values):
    run_values, bounds = runs(np.array(values, dtype=np.int64))
    assert (run_values.tolist(), bounds.tolist()) == _runs_oracle(values)


@st.composite
def _calendar(draw):
    """Returns on trading days with calendar gaps between them, 1-5 bars a
    day from 09:30, and the day offsets (from 2025-01-02) that trade."""
    gaps = draw(st.lists(st.integers(1, 4), min_size=1, max_size=12))
    offsets = np.cumsum(gaps) - gaps[0]
    bars = draw(st.lists(st.integers(1, 5), min_size=len(gaps), max_size=len(gaps)))
    days = np.datetime64("2025-01-02", "D") + np.repeat(offsets, bars)
    minutes = 9 * 60 + 30 + 5 * np.concatenate([np.arange(n) for n in bars])
    ts = days.astype("datetime64[s]") + minutes * np.timedelta64(60, "s")
    # Few distinct values, so that spans of equal returns occur.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(-3, 4, len(ts)) / 100
    return ReturnSeries("cal", Frequency.FIVE_MINUTE, ts, values), offsets


def _date(data, offsets):
    """A date before the data, in a calendar gap, on a trading day or after
    the data, as text."""
    gaps = sorted(set(range(offsets[-1])) - set(offsets.tolist()))
    choices = {
        "before": range(-3, 0),
        "gap": gaps or offsets.tolist(),
        "day": offsets.tolist(),
        "after": range(offsets[-1] + 1, offsets[-1] + 4),
    }
    kind = data.draw(st.sampled_from(sorted(choices)))
    return str(np.datetime64("2025-01-02", "D") + data.draw(st.sampled_from(choices[kind])))


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return tuple(_plain(item) for item in value)
    if isinstance(value, range):  # its bounds: ranges compare as sequences
        return (value.start, value.stop, value.step)
    if dataclasses.is_dataclass(value):
        return {key: _plain(item) for key, item in vars(value).items()}
    return value


def _outcome(fn, *args):
    """``fn(*args)`` as plain values, or its exception's type and text; and
    the texts of the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = _plain(fn(*args))
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None)
@given(calendar=_calendar(), data=st.data())
def test_day_index_matches_mask_oracle(calendar, data):
    returns, offsets = calendar
    n_days = len(offsets)
    anchor = _date(data, offsets)
    trading_days = data.draw(st.integers(1, n_days + 2), label="trading_days")
    args = (returns, anchor, trading_days)
    assert _outcome(bracket_windows, *args) == _outcome(oracle.bracket_windows, *args)

    preceding = data.draw(st.integers(0, n_days + 1), label="preceding_days")
    n_bins = data.draw(st.sampled_from([None, 1, 4]), label="n_bins")
    args = (returns, anchor, preceding, n_bins)
    assert _outcome(pmf_snapshot, *args) == _outcome(oracle.pmf_snapshot, *args)

    date_range = [data.draw(st.none() | st.just(_date(data, offsets))) for _ in range(2)]
    assert _outcome(_restrict_dates, returns, *date_range) == _outcome(
        oracle.restrict_dates, returns, *date_range
    )
    assert _bars_per_day(returns) == oracle.bars_per_day(returns)
    prices = PriceSeries(
        "cal", Frequency.FIVE_MINUTE, returns.timestamps, 100 * np.exp(np.cumsum(returns.values))
    )
    assert _plain(aggregate_to_daily(prices)) == _plain(oracle.aggregate_to_daily(prices))


def _windows(*pairs):
    """Window index pairs as ``_outcome`` gives a pair of windows."""
    return _plain(tuple(range(*pair) for pair in pairs))


def test_bracket_windows_full():
    r = make_returns(np.arange(200, dtype=float) / 1e4, start="2025-01-02")
    anchor = r.timestamps[100].astype("datetime64[D]")
    assert _outcome(bracket_windows, r, anchor, 100) == (_windows((0, 100), (100, 200)), [])


def test_bracket_windows_anchor_beyond_series():
    # The before-side is short, and warns, before the after-side fails.
    r = make_returns([0.01, 0.02, 0.03])
    assert _outcome(bracket_windows, r, "2030-01-01", 10) == (
        (OutOfRange, "2030-01-01 is after the last observation"),
        ["only 3 trading days before 2030-01-01 (requested 10)"],
    )


def test_bracket_windows_of_empty_series_is_out_of_range():
    r = make_returns([])
    with pytest.raises(OutOfRange, match="^no data before 2025-01-02$"):
        bracket_windows(r, "2025-01-02", 10)


def test_bracket_windows_cover_all_bars_of_selected_days():
    r = make_returns(np.arange(40, dtype=float) / 1e4, frequency=Frequency.FIVE_MINUTE,
                     bars_per_day=10)
    assert _outcome(bracket_windows, r, "2025-01-04", 2) == (_windows((0, 20), (20, 40)), [])


def _us_trading_days_2025():
    """Weekdays 2025-01-21 .. 2025-04-30 minus the two market holidays."""
    holidays = {date(2025, 2, 17), date(2025, 4, 18)}
    d = date(2025, 1, 21)
    out = []
    while d <= date(2025, 4, 30):
        if d.weekday() < 5 and d not in holidays:
            out.append(np.datetime64(d, "s"))
        d += timedelta(days=1)
    return np.array(out)


def test_bracket_windows_truncate_on_calendar_gaps():
    # An anchor on a holiday: the after-side starts on the next trading day,
    # and each side holds the trading days present, not calendar days.
    days = _us_trading_days_2025()
    assert len(days) == 70
    rng = np.random.default_rng(1)
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, len(days))))
    series = PriceSeries("spx-like", Frequency.DAILY, days, closes)
    r = log_returns(series)
    assert _outcome(bracket_windows, r, "2025-02-17", 100) == (_windows((0, 18), (18, 69)), [
        "only 18 trading days before 2025-02-17 (requested 100)",
        "only 51 trading days available at or after 2025-02-17 (requested 100)",
    ])
    assert r.timestamps[18] == np.datetime64("2025-02-18")


def test_bracket_windows_symmetric():
    r = make_returns(np.arange(60, dtype=float) / 1e4, start="2025-01-02")
    anchor = r.timestamps[30].astype("datetime64[D]")
    before, after = bracket_windows(r, anchor, 20)
    assert (type(before), before.start, before.stop) == (range, 10, 30)
    assert (type(after), after.start, after.stop) == (range, 30, 50)


def test_bracket_windows_no_history():
    r = make_returns([0.01, 0.02, 0.03], start="2025-01-02")
    with pytest.raises(OutOfRange):
        bracket_windows(r, "2025-01-01", 5)


def test_bracket_windows_truncated_before():
    r = make_returns(np.arange(20, dtype=float) / 1e4, start="2025-01-02")
    anchor = r.timestamps[5].astype("datetime64[D]")
    with pytest.warns(UserWarning):
        before, _ = bracket_windows(r, anchor, 10)
    assert len(before) == 5
