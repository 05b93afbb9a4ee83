import csv
import io
import math
import re
from datetime import datetime

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from entroscope import (
    AmbiguousTimestampFormat,
    Diagnostics,
    EmptyInput,
    Frequency,
    MalformedCsv,
    PriceSeries,
    ReturnSeries,
    aggregate_to_daily,
    dedup_closed_market,
    parse_csv,
    parse_csv_file,
    serialize_csv,
)
from entroscope.codec import DATE, INTRADAY, OTHER, fixed6, integers, rows, scan_rows, stamps

from _codec_oracle import scan_rows as scan_rows_oracle
from _fixtures import intraday_timestamps, make_daily, make_intraday

DAILY_3 = "timestamp,close\n2025-01-21,100.0\n2025-01-22,101.0\n2025-01-23,99.5\n"


# ----------------------------------------------------------------------
# parse_csv
# ----------------------------------------------------------------------

def test_parse_daily_basic():
    series, diag = parse_csv(DAILY_3, Frequency.DAILY, "t")
    assert len(series) == 3
    assert diag.dropped == 0
    assert series.closes.tolist() == [100.0, 101.0, 99.5]
    assert np.all(series.timestamps[1:] > series.timestamps[:-1])


def test_parse_sorts_shuffled_rows():
    shuffled = "timestamp,close\n2025-01-23,99.5\n2025-01-21,100.0\n2025-01-22,101.0\n"
    a, _ = parse_csv(DAILY_3, Frequency.DAILY, "t")
    b, _ = parse_csv(shuffled, Frequency.DAILY, "t")
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.array_equal(a.closes, b.closes)


def _bad_row_oracle(raw_text: str, intraday: bool) -> int:
    """Independent re-scan: count rows that must be rejected."""
    if intraday:
        formats = ["%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H-%M-%S"]
    else:
        formats = ["%Y-%m-%d"]
    bad = 0
    for line in raw_text.strip().splitlines()[1:]:
        ts_text, price_text = line.split(",", 1)
        for fmt in formats:
            try:
                datetime.strptime(ts_text, fmt)
                break
            except ValueError:
                pass
        else:
            bad += 1
            continue
        try:
            price = float(price_text)
        except ValueError:
            bad += 1
            continue
        if not math.isfinite(price) or price <= 0:
            bad += 1
    return bad


def _intraday_text(closes, bad_rows=()):
    ts = intraday_timestamps(len(closes), bars_per_day=78)
    lines = ["timestamp,close"]
    for t, c in zip(ts, closes):
        lines.append(f"{str(t).replace('T', ' ')},{c}")
    for row in bad_rows:
        lines.append(row)
    return "\n".join(lines) + "\n"


def test_parse_drops_bad_rows_counted_by_rescan_oracle():
    closes = [100.0 + i * 0.1 for i in range(10)]
    bad = [
        "2025-01-02 10:20:00,-1",        # non-positive close
        "2025-01-02 10:25:00,nan",       # non-finite close
        "2025-13-40 10:30:00,100.0",     # impossible date components
        "not-a-date,100.0",              # unrecognized shape
    ]
    text = _intraday_text(closes, bad_rows=bad)
    series, diag = parse_csv(text, Frequency.FIVE_MINUTE, "t")
    assert len(series) == len(closes)
    assert diag.dropped == _bad_row_oracle(text, intraday=True) == len(bad)


def test_parse_negative_close_drops_one():
    closes = [100.0 + i * 0.1 for i in range(6)]
    text = _intraday_text(closes, bad_rows=["2025-01-02 12:00:00,-1"])
    series, diag = parse_csv(text, Frequency.FIVE_MINUTE, "t")
    assert len(series) == 6
    assert diag.dropped == 1


def test_parse_empty_and_header_only():
    with pytest.raises(EmptyInput):
        parse_csv("", Frequency.DAILY, "t")
    with pytest.raises(EmptyInput):
        parse_csv("timestamp,close\n", Frequency.DAILY, "t")


def test_parse_missing_column():
    with pytest.raises(EmptyInput):
        parse_csv("date,price\n2025-01-21,100.0\n", Frequency.DAILY, "t")


def test_parse_mixed_granularity_is_ambiguous():
    # The intraday stamp bare (a fast line) and quoted (a csv record).
    for other in ("2025-01-22 09:30:00", '"2025-01-22 09:30:00"'):
        text = f"timestamp,close\n2025-01-21,100.0\n{other},101.0\n"
        for frequency in Frequency:
            with pytest.raises(AmbiguousTimestampFormat):
                parse_csv(text, frequency, "t")


@pytest.mark.parametrize("frequency, good, odd", [
    (Frequency.FIVE_MINUTE, "2025-01-02 09:30:00", "\u0662025-01-02"),
    (Frequency.DAILY, "2025-01-02", "\u0662025-01-02 09:30:00"),
], ids=["intraday", "daily"])
def test_parse_drops_stamp_with_non_ascii_digits(frequency, good, odd):
    # An Arabic-Indic digit makes the stamp unparseable, not a stamp of the
    # other shape: its row is dropped and the file is not ambiguous.
    text = f"timestamp,close\n{good},100\n{odd},100\n"
    series, diag = parse_csv(text, frequency, "t")
    assert series.closes.tolist() == [100.0]
    assert diag.dropped == 1


def test_parse_normalizes_hyphenated_times():
    text = "timestamp,close\n2025-01-21 09-30-00,100.0\n2025-01-21 09:35:00,101.0\n"
    series, diag = parse_csv(text, Frequency.FIVE_MINUTE, "t")
    assert diag.dropped == 0
    assert "2025-01-21 09:30:00" in serialize_csv(series)


def test_parse_custom_columns():
    text = "Date,Open,Close\n2025-01-21,99.0,100.0\n2025-01-22,100.5,101.0\n"
    series, _ = parse_csv(text, Frequency.DAILY, "t", dt_col="Date", close_col="Close")
    assert series.closes.tolist() == [100.0, 101.0]


def test_parse_duplicate_timestamps_keep_first():
    text = "timestamp,close\n2025-01-21,100.0\n2025-01-21,200.0\n2025-01-22,101.0\n"
    series, diag = parse_csv(text, Frequency.DAILY, "t")
    assert series.closes.tolist() == [100.0, 101.0]
    assert diag.dropped == 1


# Start days from which 40 daily closes, or 40 bars of 12 a day, stay in
# years 0000..9999, the years the codec writes and reads.
_FIRST_DAY = int(np.datetime64("0000-01-01", "D").astype(np.int64))
_LAST_START = int(np.datetime64("9999-12-31", "D").astype(np.int64)) - 39


@settings(max_examples=60)
@given(
    micro=st.lists(st.integers(1, 500_000_000), min_size=1, max_size=40),
    daily=st.booleans(),
    start=st.integers(_FIRST_DAY, _LAST_START),
)
@example(micro=[1] * 40, daily=True, start=_FIRST_DAY)
@example(micro=[1] * 40, daily=True, start=_LAST_START)
@example(micro=[1] * 40, daily=False, start=_LAST_START)
def test_serialize_parse_roundtrip(micro, daily, start):
    closes = [k / 1e6 for k in micro]
    start = np.datetime64(start, "D")
    series = make_daily(closes, start) if daily else make_intraday(closes, 12, start)
    parsed, diag = parse_csv(serialize_csv(series), series.frequency, "test")
    assert diag.dropped == 0
    assert np.array_equal(parsed.timestamps, series.timestamps)
    assert np.array_equal(parsed.closes, series.closes)


@pytest.mark.parametrize("frequency, ends", [
    (Frequency.DAILY, ["9999-12-29", "9999-12-30", "9999-12-31"]),
    (Frequency.DAILY, ["0000-01-01", "9999-12-31"]),
    (Frequency.FIVE_MINUTE, ["0000-01-01T00:00:00", "0000-01-01T09:30:00", "9999-12-31T09:30:00",
                             "9999-12-31T23:59:59"]),
], ids=["daily to 9999-12-31", "daily 0000 to 9999", "intraday 0000 to 9999"])
def test_series_at_the_ends_of_years_0000_9999_round_trip(frequency, ends):
    closes = np.arange(1.0, len(ends) + 1)
    series = PriceSeries("t", frequency, np.array(ends, "datetime64[s]"), closes)
    parsed, diag = parse_csv(serialize_csv(series), frequency, "t")
    assert diag.dropped == 0
    assert np.array_equal(parsed.timestamps, series.timestamps)
    assert np.array_equal(parsed.closes, series.closes)


_SERIES_OF = {
    "intraday prices": lambda ts: PriceSeries("t", Frequency.FIVE_MINUTE, ts, np.ones(len(ts))),
    "daily prices": lambda ts: PriceSeries("t", Frequency.DAILY, ts, np.ones(len(ts))),
    "returns": lambda ts: ReturnSeries("t", Frequency.DAILY, ts, np.ones(len(ts))),
}


@pytest.mark.parametrize("stamps_in, first", [
    (["NaT"], "NaT"),
    (["-001-12-31T23:59:59", "0000-01-01T00:00:00"], "-001-12-31T23:59:59"),
    (["9999-12-31T23:59:59", "10000-01-01T00:00:00"], "10000-01-01T00:00:00"),
    (["9999-12-30", "9999-12-31", "10000-01-01", "10000-01-02"], "10000-01-01T00:00:00"),
], ids=["NaT alone", "a second before 0000", "a second past 9999", "days past 9999"])
@pytest.mark.parametrize("kind", list(_SERIES_OF))
def test_series_refuse_stamps_outside_years_0000_9999(kind, stamps_in, first):
    # Their text would not read back. NaT alone has no order to check, and
    # in a daily series the rule runs before the time-of-day rule.
    with pytest.raises(ValueError) as caught:
        _SERIES_OF[kind](np.array(stamps_in, "datetime64[s]"))
    assert str(caught.value) == f"timestamp {first} lies outside years 0000-9999"


def test_serialize_csv_refuses_a_close_that_prints_as_zero():
    # Such a close would read back as 0 and be dropped as non-positive;
    # the refusal follows f"{v:.6f}" exactly, on both sides of its edge.
    for close in [4.9e-7, 5e-7, np.nextafter(5e-7, 1.0), 5.1e-7]:
        series = make_daily([1.5, close, 1.6, 1.7])
        if f"{close:.6f}" == "0.000000":
            with pytest.raises(ValueError) as caught:
                serialize_csv(series)
            assert str(caught.value) == f"close {close:g} at 2025-01-03T00:00:00 prints as zero"
        else:
            parsed, diag = parse_csv(serialize_csv(series), Frequency.DAILY, "t")
            assert (len(parsed), diag.dropped) == (4, 0)
    assert [f"{v:.6f}" for v in (4.9e-7, 5e-7, np.nextafter(5e-7, 1.0), 5.1e-7)] == [
        "0.000000", "0.000000", "0.000001", "0.000001"]
    with pytest.raises(ValueError, match="^close 1e-07 at 2025-01-04T00:00:00 prints as zero$"):
        serialize_csv(make_daily([1.5, 4e-7, 1e-7, 1.7]))  # the lowest is named


# ----------------------------------------------------------------------
# the codec against the whole-file row parser
# ----------------------------------------------------------------------

# The stamp grammar of the oracle. ASCII digits only: a stamp with other
# digits is unparseable, not date-shaped.
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$", re.ASCII)
_DT_COLON_RE = re.compile(r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}$", re.ASCII)
_DT_HYPHEN_RE = re.compile(r"^\d{4}-\d{2}-\d{2} \d{2}-\d{2}-\d{2}$", re.ASCII)


def _classify_timestamp(text):
    """Return 'date', 'intraday', or None for unrecognized shapes."""
    if _DATE_RE.match(text):
        return "date"
    if _DT_COLON_RE.match(text) or _DT_HYPHEN_RE.match(text):
        return "intraday"
    return None


def _normalize_intraday(text):
    if _DT_HYPHEN_RE.match(text):
        date_part, time_part = text.split(" ")
        return date_part + " " + time_part.replace("-", ":")
    return text


def _parse_csv_oracle(raw_text, frequency, instrument_id, dt_col="timestamp", close_col="close"):
    """The whole-file DictReader parser that the codec replaced."""
    reader = csv.DictReader(io.StringIO(raw_text))
    if reader.fieldnames is None:
        raise EmptyInput("no header row")
    if dt_col not in reader.fieldnames or close_col not in reader.fieldnames:
        raise EmptyInput(
            f"required columns {dt_col!r}/{close_col!r} not in header {reader.fieldnames}"
        )

    wanted_shape = "date" if frequency is Frequency.DAILY else "intraday"
    seen_shapes: set[str] = set()
    stamps: list[np.datetime64] = []
    prices: list[float] = []
    dropped = 0

    for row in reader:
        ts_text = (row.get(dt_col) or "").strip()
        price_text = (row.get(close_col) or "").strip()
        shape = _classify_timestamp(ts_text)
        if shape is not None:
            seen_shapes.add(shape)
        if shape != wanted_shape:
            dropped += 1
            continue
        try:
            ts = np.datetime64(_normalize_intraday(ts_text), "s")
        except ValueError:
            dropped += 1
            continue
        try:
            price = float(price_text)
        except ValueError:
            dropped += 1
            continue
        if not math.isfinite(price) or price <= 0:
            dropped += 1
            continue
        stamps.append(ts)
        prices.append(price)

    if len(seen_shapes) > 1:
        raise AmbiguousTimestampFormat("file mixes date-only and intraday timestamps")
    if not stamps:
        raise EmptyInput("no valid rows")

    ts_arr = np.array(stamps, dtype="datetime64[s]")
    cl_arr = np.array(prices, dtype=np.float64)
    order = np.argsort(ts_arr, kind="stable")
    ts_arr = ts_arr[order]
    cl_arr = cl_arr[order]

    if len(ts_arr) > 1:
        keep = np.concatenate(([True], ts_arr[1:] > ts_arr[:-1]))
        dup = int(len(ts_arr) - keep.sum())
        if dup:
            dropped += dup
            ts_arr = ts_arr[keep]
            cl_arr = cl_arr[keep]

    series = PriceSeries(instrument_id, frequency, ts_arr, cl_arr)
    return series, Diagnostics(dropped=dropped)


def _outcome(parse, *args, **kwargs):
    """A parse result, or the type of the error it raised; the csv module's
    error is what the codec reports as MalformedCsv."""
    try:
        series, diag = parse(*args, **kwargs)
    except (csv.Error, MalformedCsv):
        return MalformedCsv
    except Exception as exc:  # the type is compared, whatever it is
        return type(exc)
    return (series.instrument_id, series.frequency, series.timestamps.tolist(),
            series.closes.tolist(), diag)


# (header, dt_col, close_col)
_HEADERS = [
    ("timestamp,close", "timestamp", "close"),
    ("Date,Close", "Date", "Close"),
    ("close,timestamp", "timestamp", "close"),
    ("timestamp,open,close", "timestamp", "close"),
    ("x,x", "x", "x"),
    ("\ufefftimestamp,close", "timestamp", "close"),
    ('"timestamp","close"', "timestamp", "close"),
]
_ODD_PRICES = [
    "1_0", "1e3", "inf", "-inf", "nan", "NaN", "-0", "0", "0.000000", "-1.5", "+1.5", ".5", "5.",
    "1..2", "", "abc", " 1.5", "1.5 ", "1.5\x1c", "١٢", "9" * 40,
]
_ODD_STAMPS = [
    "n/a", "", "2025/01/02", "09:30:00 2025-01-02", "2025-01-02 09:30", "٢025-01-02",
    "2025-01-02 09-30:00", "2025-01-02 09:30-00", "2025-01-02\u3000",
]


_DATE = st.builds(
    "{:04d}-{:02d}-{:02d}".format,
    st.sampled_from([1900, 2000, 2023, 2024]),
    st.integers(1, 2),
    st.integers(1, 28),
) | st.sampled_from(["2000-02-29", "2024-02-29", "2024-12-31"])
_BAD_DATE = st.sampled_from([
    "2023-02-29", "1900-02-29", "2024-02-30", "2024-04-31", "2024-13-05", "2024-00-10",
    "2024-01-00", "2024-01-32",
])
_HMS = st.builds("{:02d}:{:02d}:00".format, st.integers(9, 10), st.sampled_from([0, 5, 30, 55]))
_BAD_HMS = st.sampled_from(["24:00:00", "23:60:00", "12:00:60"])
_PRICE = st.builds("{:.{}f}".format, st.floats(0.001, 1e5), st.integers(0, 8))
# (kind of dirt, date, invalid date, time, invalid time, odd stamp, price,
# odd price, which earlier row to repeat)
_ROW = st.tuples(
    st.integers(0, 20), _DATE, _BAD_DATE, _HMS, _BAD_HMS, st.sampled_from(_ODD_STAMPS), _PRICE,
    st.sampled_from(_ODD_PRICES), st.integers(0, 99),
)


def _dirty_csv(header, dt_col, close_col, intraday, mixed, specs, end):
    """CSV text with one line per spec: a row of the frequency's stamp shape,
    clean or with one kind of dirt (an odd stamp or price, an invalid date or
    time, a hyphenated or T-separated time, quotes, padding, a missing or
    extra column, a CR, a blank line, a quoted field across a line end, a
    repeated row and, in a ``mixed`` file, a stamp of the other shape)."""
    columns = next(csv.reader([header.lstrip("\ufeff")]))
    lines = [header]
    for kind, date, bad_date, hms, bad_hms, odd_stamp, price, odd_price, repeat in specs:
        if kind == 10:
            date = bad_date
        elif kind == 11:
            hms = hms.replace(":", "-")
        elif kind == 14:
            hms = bad_hms
        stamp = f"{date}{'T' if kind == 12 else ' '}{hms}"
        if intraday == (mixed and kind == 0):
            stamp = date
        stamp = odd_stamp if kind == 1 else stamp
        price = odd_price if kind == 13 else price
        fields = [stamp if c == dt_col else "7" for c in columns]
        fields[len(columns) - 1 - columns[::-1].index(close_col)] = price  # DictReader's column
        if kind == 2:
            fields = [f'"{f}"' for f in fields]
        elif kind == 3:
            fields = [f" {f} " for f in fields]
        elif kind == 4:
            fields.append("extra")
        elif kind == 5:
            fields = fields[:-1]
        line = ",".join(fields)
        if kind == 6:
            line += "\r"
        elif kind == 7:
            lines.append("")
        elif kind == 8:
            line = f'{stamp},"{price}\n{stamp},{price}"'
        elif kind == 9 and len(lines) > 1:
            line = lines[1 + repeat % (len(lines) - 1)]
        lines.append(line)
    return "\n".join(lines) + end


# No shrink phase: a parser fault found here could take minutes to shrink
# over files of 40 dirty rows, and test_codec_matches_row_oracle_on_one_odd_row
# already pins each single-row fault.
@settings(max_examples=300, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(
    header=st.sampled_from(_HEADERS[:1] * 6 + _HEADERS[1:]),
    intraday=st.booleans(),
    mixed=st.sampled_from([False, False, False, True]),
    specs=st.lists(_ROW, max_size=40),
    end=st.sampled_from(["\n", "", "\n\n", "\r\n"]),
)
def test_codec_matches_row_oracle_on_dirty_csv(header, intraday, mixed, specs, end):
    text = _dirty_csv(*header, intraday, mixed, specs, end)
    frequency = Frequency.FIVE_MINUTE if intraday else Frequency.DAILY
    kwargs = dict(dt_col=header[1], close_col=header[2])
    assert _outcome(parse_csv, text, frequency, "t", **kwargs) == _outcome(
        _parse_csv_oracle, text, frequency, "t", **kwargs
    )


@pytest.mark.parametrize("intraday", [False, True], ids=["daily", "intraday"])
@pytest.mark.parametrize("header", _HEADERS, ids=[h[0] for h in _HEADERS])
def test_codec_matches_row_oracle_on_one_odd_row(header, intraday):
    # Every odd stamp and every odd price as the only dirty row of an
    # otherwise clean file, so that a drop-rule fault on any one of them
    # fails deterministically, whatever the property test draws.
    def row(day, kind=20, odd_stamp="", odd_price=""):
        return (kind, f"2024-01-{day:02d}", "2024-02-30", "09:30:00", "24:00:00",
                odd_stamp, "1.5", odd_price, 0)

    frequency = Frequency.FIVE_MINUTE if intraday else Frequency.DAILY
    kwargs = dict(dt_col=header[1], close_col=header[2])
    odd_rows = [row(8, 1, odd_stamp=s) for s in _ODD_STAMPS]
    odd_rows += [row(8, 13, odd_price=p) for p in _ODD_PRICES]
    for odd in odd_rows:
        specs = [row(2), row(3), odd, row(9), row(10)]
        text = _dirty_csv(*header, intraday, False, specs, "\n")
        assert _outcome(parse_csv, text, frequency, "t", **kwargs) == _outcome(
            _parse_csv_oracle, text, frequency, "t", **kwargs
        ), text


def test_codec_checks_dates_and_times_like_numpy():
    dates = [
        f"{y:04d}-{m:02d}-{d:02d}"
        for y in (0, 1, 1600, 1700, 1900, 2000, 2023, 2024, 2100, 9999)
        for m in range(14) for d in range(33)
    ]
    times = [
        f"{h:02d}:{m:02d}:{s:02d}" for h in (0, 23, 24, 99) for m in (0, 59, 60) for s in (0, 59, 60)
    ]
    daily = "timestamp,close\n" + "".join(f"{d},1.5\n" for d in dates)
    intraday = "timestamp,close\n" + "".join(
        f"{d} {t},1.5\n" for d in ("2024-02-29", "2023-02-29", "2024-12-31") for t in times
    )
    for text, frequency in ((daily, Frequency.DAILY), (intraday, Frequency.FIVE_MINUTE)):
        assert _outcome(parse_csv, text, frequency, "t") == _outcome(
            _parse_csv_oracle, text, frequency, "t"
        )


# Plain decimals of 1..32 bytes: leading zeros, mantissas of 15 to 17
# digits and more, up to 23 fraction digits, and values next to 2**53.
_DECIMAL = st.one_of(
    st.builds(
        "{}.{}".format, st.text("0123456789", min_size=1, max_size=17),
        st.text("0123456789", min_size=1, max_size=23),
    ),
    st.text("0123456789", min_size=1, max_size=32),
    st.sampled_from([
        "0.0000000000000000000000001", "9007199254740993", "9007199254740992",
        "9007199254740991", "900719925474099.3", "123456789012345", "1234567890123456",
        "12345678901234567", "1.0000000000000000000001", "1.00000000000000000000001",
        "0.1", "0.30000000000000004", "00000000000000000000000000000001",
        "99999999999999999999999999999999", "4.35", "1.7976931348623157",
    ]),
).filter(lambda text: len(text) <= 32)


@settings(max_examples=200, deadline=None)
@given(prices=st.lists(_DECIMAL, min_size=1, max_size=30))
def test_codec_prices_equal_python_float_bit_for_bit(prices):
    days = np.datetime64("2000-01-01") + np.arange(len(prices))
    text = "timestamp,close\n" + "".join(f"{d},{p}\n" for d, p in zip(days, prices))
    want = [float(p) for p in prices if float(p) > 0]
    if not want:
        with pytest.raises(EmptyInput):
            parse_csv(text, Frequency.DAILY, "t")
        return
    series, _ = parse_csv(text, Frequency.DAILY, "t")
    assert [v.hex() for v in series.closes.tolist()] == [v.hex() for v in want]


@pytest.mark.parametrize("data", [
    b"timestamp,close\r\n2025-01-02,1.5\r\n2025-01-03,2.5\r\n",
    b"timestamp,close\r2025-01-02,1.5\r2025-01-03,2.5",
    b"timestamp,close\n2025-01-02,1.5\r\r\n2025-01-03,2.5\r",
    "\ufefftimestamp,close\n2025-01-02,1.5\n".encode("utf-8"),
    b"\xef\xbb\xbftimestamp,close\r\n2025-01-02,1.5\r\n",
    b"timestamp,close\n2025-01-02,1.5\n\xff\xfe2025-01-03,2.5\n",
    b"timestamp,close\n2025-01-02,\xc3\n",
], ids=["crlf", "lone-cr", "mixed-ends", "bom", "bom-crlf", "invalid-utf8", "truncated-utf8"])
def test_parse_csv_file_equals_text_mode_read(tmp_path, data):
    path = tmp_path / "prices.csv"
    path.write_bytes(data)

    def text_mode(p, *args):
        return parse_csv(p.read_text(encoding="utf-8"), *args)

    assert _outcome(parse_csv_file, path, Frequency.DAILY, "t") == _outcome(
        text_mode, path, Frequency.DAILY, "t"
    )


def test_codec_matches_row_oracle_on_long_and_quoted_fields():
    long_field = "1" * 200_000
    cases = [
        f"timestamp,close\n2025-01-02,{long_field}\n2025-01-03,1.5\n",
        'timestamp,close\n2025-01-02,"1.5\n2025-01-03,2.5"\n2025-01-04,3.5\n',
        "timestamp,close\n2025-01-02,1.5\r2025-01-03,2.5\n",
        "timestamp,close\n\n\n2025-01-02,1.5\n\n",
        "timestamp,close\n2025-01-02,1.5\n\x002025-01-03,2.5\n",
        # a fast-shaped line taken into the record before it is not a row
        'timestamp,close\n2025-01-02,"1.5\n2025-01-03,2.5\n"\n2025-01-04,3.5\n',
        # row-path records: padding that str.strip removes and float keeps,
        # an infinite price, a lone surrogate
        "timestamp,close\n2025-01-02\u3000,1.5\x1c\n2025-01-03, inf\n2025-01-04,2\n",
        "timestamp,close\n2025-01-02\ud800,1.5\n2025-01-03,2.5\n",
        "",
        "\n",
        "timestamp,close",
    ]
    for text in cases:
        assert _outcome(parse_csv, text, Frequency.DAILY, "t") == _outcome(
            _parse_csv_oracle, text, Frequency.DAILY, "t"
        )
    with pytest.raises(MalformedCsv, match="field larger than field limit"):
        parse_csv(cases[0], Frequency.DAILY, "t")


# ----------------------------------------------------------------------
# scan_rows against the column-at-a-time decoder
# ----------------------------------------------------------------------

def _assert_scan_matches_oracle(data: bytes):
    """``scan_rows`` and its oracle over the lines of ``data`` (split as
    ``parse_csv`` splits them): the same shape on every line, and the same
    seconds, validity and price bits on every line with a fast shape."""
    buf = np.frombuffer(data, dtype=np.uint8)
    starts, ends, at = [], [], 0
    for line in data.split(b"\n"):
        starts.append(at)
        ends.append(at + len(line))
        at += len(line) + 1
    if starts[-1] == len(data):  # nothing after the last line end
        starts, ends = starts[:-1], ends[:-1]
    bounds = np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)
    shape, seconds, valid, prices = scan_rows(buf, *bounds)
    want_shape, want_seconds, want_valid, want_prices = scan_rows_oracle(buf, *bounds)
    assert shape.tolist() == want_shape.tolist(), data
    fast = want_shape != OTHER
    assert seconds[fast].tolist() == want_seconds[fast].tolist(), data
    assert valid[fast].tolist() == want_valid[fast].tolist(), data
    assert prices[fast].view(np.int64).tolist() == want_prices[fast].view(np.int64).tolist(), data


_LONG_PRICES = [
    "9" * 32, "1" * 33, "9007199254740993", "90071992547409.93", "9007199254740992.5",
    "0." + "1" * 30, "0." + "0" * 22 + "1", "1." + "0" * 22 + "1",
    "12345678901234567890.123456789012",
]


@pytest.mark.parametrize("data", [
    b"", b"\n", b"1", b"2025-01-02,1", b"2025-01-02,1\n", b"2025-01-02 09:30:00,1",
    b"2025-01-02 09:30:00,1.5\n2025-01-02 09:3",
    b"2025-01-02 09:30:00,123456.789\n2025-01-02 09:35:00,1",
    b"2025-01-02 09:30:00,123456.789\n2025-01-02 09:35:00,1.",
    b"2025-01-02,123456.789\n2025-01-03,1\n2025-01-04,",
    b"2025-01-02 09:30:00,1.5\n2025-01-02,2.5\n2025-01-02 09-40-00,3.5\n2025-01-02 09-40:00,4",
    b"2025-01-02 09:30:001,1.5\n2025-01-02 09:30:0012\n2025-01-02 09:30:00,1.5\n",
    b"2025-02-30 09:30:00,1.5\n" * 5 + b"2025-02-28 09:30:00,1.5\n" * 3 + b"2025-01-00,2\n" * 2,
    b"".join(f"2025-01-02,{'9' * k}\n".encode() for k in range(1, 34)),
    b"".join(f"2025-01-02 09:30:00,{p}\n".encode() for p in _LONG_PRICES),
], ids=lambda data: data[:24].decode())
def test_scan_rows_matches_oracle(data):
    _assert_scan_matches_oracle(data)


@pytest.mark.parametrize("stamp", ["2025-01-02", "2025-01-02 09:30:00", "2025-01-02 09-30-00"])
def test_scan_rows_decodes_each_date_run_like_the_oracle(stamp):
    # Runs of one date, each broken by a one-byte change at one of the ten
    # date positions: to another digit, and to a byte no date holds.
    lines = [stamp] * 3
    for k in range(10):
        for byte in ("7" if stamp[k] != "7" else "8", "x"):
            lines += [stamp[:k] + byte + stamp[k + 1 :]] * 3 + [stamp] * 2
    _assert_scan_matches_oracle("".join(f"{line},1.5\n" for line in lines).encode())


_SCAN_DATES = st.sampled_from([
    "2025-01-02", "2024-02-29", "2023-02-29", "2025-02-30", "0000-01-01", "9999-12-31",
    "2025-13-01", "2025-00-10", "2025-01-00", "2025-01-32",
])
_SCAN_TIMES = st.sampled_from([
    "", " 09:30:00", " 09-30-00", " 23:59:59", " 24:00:00", " 12:60:00", " 12:00:60",
    " 09:30-00", " 9:30:00", " 09:30:001", "T09:30:00",
])
_SCAN_PRICES = st.one_of(
    _DECIMAL, st.sampled_from(_ODD_PRICES + _LONG_PRICES), st.text("0123456789.", max_size=34),
)


@st.composite
def _scan_buffers(draw):
    """Lines in runs of one date, a run's date sometimes with one byte
    changed; a last line end or none; and sometimes cut short anywhere."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        date = bytearray(draw(_SCAN_DATES).encode())
        if draw(st.booleans()):
            date[draw(st.integers(0, 9))] = draw(st.sampled_from(b"0123456789-: ,x"))
        for _ in range(draw(st.integers(1, 5))):
            stamp = bytes(date) + draw(_SCAN_TIMES).encode()
            lines.append(stamp + b"," + draw(_SCAN_PRICES).encode())
    data = b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data


# No shrink phase, as for test_codec_matches_row_oracle_on_dirty_csv: the
# deterministic cases above pin the single-line faults.
@settings(max_examples=300, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(data=_scan_buffers())
def test_scan_rows_matches_oracle_on_random_lines(data):
    _assert_scan_matches_oracle(data)


def _near_ties(rng, scale, count):
    """Values within three units in the last place of k + 0.5 millionths."""
    ties = (rng.integers(0, int(scale * 1e6), count) + 0.5) / 1e6
    return ties + rng.integers(-3, 4, count) * np.spacing(ties)


@pytest.mark.parametrize("scale", [1.0, 100.0, 1e4, 1e9])
def test_fixed6_equals_python_format(scale):
    rng = np.random.default_rng(int(scale))
    values = np.concatenate([
        rng.random(5000) * scale,
        -rng.random(500) * scale,
        _near_ties(rng, scale, 5000),
        -_near_ties(rng, scale, 500),
        np.round(rng.random(500) * scale, 6),
        [0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, 2.0**52 / 1e6, 0.0078125, 9.9999995, 5e-7],
        [1e303, -np.finfo(np.float64).max],  # |v| * 1e6 overflows
    ])
    text = rows(fixed6(values), b"\n").decode("ascii")
    assert text.splitlines() == [f"{v:.6f}" for v in values.tolist()]


def test_integers_equal_str():
    values = [0] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)] + [2**63 - 1]
    text = rows(integers(values), b"\n").decode("ascii")
    assert text.splitlines() == [str(v) for v in values]


# The stamps ``stamps`` writes: those whose text ``scan_rows`` reads back.
_FIRST_STAMP = np.datetime64("0000-01-01T00:00:00")
_LAST_STAMP = np.datetime64("9999-12-31T23:59:59")


def _assert_stamps_equal_numpy(stamps_in, daily):
    """``stamps`` of the stamps in years 0000..9999 equal numpy's text. A
    series holds no other stamp (NaT compares outside): each alone, and the
    distinct ones other than NaT in order, are refused when the series is
    built, naming the first."""
    inside = (stamps_in >= _FIRST_STAMP) & (stamps_in <= _LAST_STAMP)
    refused = [stamp[None] for stamp in stamps_in[~inside]]
    if (~inside & ~np.isnat(stamps_in)).any():
        refused.append(np.unique(stamps_in[~np.isnat(stamps_in)]))
    for held in refused:
        first = held[~((held >= _FIRST_STAMP) & (held <= _LAST_STAMP))][0]
        with pytest.raises(ValueError, match=f"^timestamp {first} lies outside years 0000-9999$"):
            PriceSeries("t", Frequency.DAILY if daily else Frequency.FIVE_MINUTE, held,
                        np.ones(len(held)))
    stamps_in = stamps_in[inside]
    want = np.datetime_as_string(stamps_in, unit="D" if daily else "s").tolist()
    if not daily:
        want = [s.replace("T", " ") for s in want]
    out = stamps(stamps_in, daily)
    assert len(out) == len(stamps_in)
    assert rows(out, b"\n").decode("ascii").splitlines() == want


@pytest.mark.parametrize("daily", [True, False])
def test_stamps_equal_numpy(daily):
    # Years outside 0..9999 and NaT are refused by a series; the others
    # equal numpy's text.
    stamps_in = np.array([
        f"{y}-{md}T{hms}"
        for y in ("0000", "0001", "1969", "1970", "9999", "10000", "-001")
        for md, hms in (("01-01", "00:00:00"), ("02-28", "09:05:07"), ("12-31", "23:59:59"))
    ] + ["0000-02-29T12:00:00", "NaT"], dtype="datetime64[s]")
    _assert_stamps_equal_numpy(stamps_in, daily)


def test_every_second_of_a_day_renders_like_numpy():
    # Every row of the clock table; NaT and years outside 0..9999 among
    # them are refused by a series.
    day = np.datetime64("2025-03-14T00:00:00") + np.arange(86400) * np.timedelta64(1, "s")
    odd = np.array(["NaT", "10000-01-01T23:59:59", "-001-12-31T00:00:01"], dtype="datetime64[s]")
    _assert_stamps_equal_numpy(np.concatenate([day[:40000], odd, day[40000:]]), daily=False)


_BARS = intraday_timestamps(5 * 78, 78, start="2024-12-30")  # runs of 78 bars a day
_RUNS_OF_DAYS = {
    "bars": _BARS,
    "shuffled bars": np.random.default_rng(3).permutation(_BARS),
    "NaT and outside years inside runs": np.array([
        "2025-01-02T09:30:00", "NaT", "2025-01-02T09:35:00", "NaT", "NaT",
        "10000-01-01T00:00:00", "10000-01-01T00:05:00", "10000-01-01T23:59:59",
        "-001-12-31T23:55:00", "-001-12-31T23:59:59", "0000-01-01T00:00:00",
        "9999-12-31T23:59:59", "9999-12-31T23:59:59",
    ], dtype="datetime64[s]"),
    "empty": np.array([], dtype="datetime64[s]"),
}


@pytest.mark.parametrize("daily", [True, False])
@pytest.mark.parametrize("case", list(_RUNS_OF_DAYS))
def test_stamps_equal_numpy_over_runs_of_one_day(case, daily):
    _assert_stamps_equal_numpy(_RUNS_OF_DAYS[case], daily)


# Every day of one 400-year Gregorian cycle, after which the calendar
# repeats, and every day of years 0000 and 9999, the ends of the years a
# fast shape can hold.
_CALENDAR = np.concatenate([
    np.arange("1600-01-01", "2000-01-01", dtype="datetime64[D]"),
    np.arange("0000-01-01", "0001-01-01", dtype="datetime64[D]"),
    np.arange("9999-01-01", "10000-01-01", dtype="datetime64[D]"),
])


def _scan_lines(lines: list[str]):
    """``scan_rows`` over ``lines``, each followed by ``,1``."""
    data = "".join(f"{line},1\n" for line in lines).encode()
    lengths = np.array([len(line) + 2 for line in lines], dtype=np.int64)
    starts = np.cumsum(lengths + 1) - (lengths + 1)
    return scan_rows(np.frombuffer(data, dtype=np.uint8), starts, starts + lengths)


@pytest.mark.parametrize("daily", [True, False], ids=["daily", "intraday"])
def test_every_calendar_day_renders_and_decodes_like_numpy(daily):
    stamps_in = _CALENDAR.astype("datetime64[s]") + np.timedelta64(0 if daily else 34_259, "s")
    _assert_stamps_equal_numpy(stamps_in, daily)
    lines = rows(stamps(stamps_in, daily), b"\n").decode("ascii").splitlines()
    shape, seconds, valid, _ = _scan_lines(lines)
    assert (shape == (DATE if daily else INTRADAY)).all()
    assert valid.all()
    assert np.array_equal(seconds, stamps_in.view(np.int64))


def test_days_off_every_month_of_the_cycle_are_invalid_like_numpy():
    # Day 0, the day after the month's last and day 32 of every month of
    # the cycle: invalid, yet counted on from the month's first day, as
    # np.datetime64 of the month plus day - 1.
    months = np.unique(_CALENDAR.astype("datetime64[M]"))
    lengths = ((months + 1).astype("datetime64[D]") - months.astype("datetime64[D]")).astype(int)
    text = np.datetime_as_string(months).tolist()
    lines, want = [], []
    for month, length in zip(text, lengths.tolist()):
        for day in sorted({0, length + 1, 32}):
            lines.append(f"{month}-{day:02d}")
            want.append(np.datetime64(month, "D") + (day - 1))
    shape, seconds, valid, _ = _scan_lines(lines)
    assert (shape == DATE).all()
    assert not valid.any()
    assert np.array_equal(seconds, np.array(want, dtype="datetime64[s]").view(np.int64))
    # 29 February of a century: a leap day in 2000, none in 1700.
    _, seconds, valid, _ = _scan_lines(["1700-02-29", "2000-02-29"])
    assert valid.tolist() == [False, True]
    assert seconds.tolist() == [
        np.datetime64("1700-03-01", "s").astype(int), np.datetime64("2000-02-29", "s").astype(int)
    ]


# ----------------------------------------------------------------------
# dedup_closed_market
# ----------------------------------------------------------------------

def _dedup_oracle(closes, run_length):
    """Brute-force run-length scan: indices that survive."""
    keep = []
    i = 0
    while i < len(closes):
        j = i
        while j < len(closes) and closes[j] == closes[i]:
            j += 1
        if j - i > run_length:
            keep.append(i)
        else:
            keep.extend(range(i, j))
        i = j
    return keep


def test_dedup_truncates_long_run():
    series = make_intraday([100.0] * 7 + [101.0])
    out, diag = dedup_closed_market(series, run_length=6)
    assert out.closes.tolist() == [100.0, 101.0]
    assert np.array_equal(out.timestamps, series.timestamps[[0, 7]])
    assert diag.removed == 6
    assert _dedup_oracle(series.closes.tolist(), 6) == [0, 7]


def test_dedup_short_runs_untouched():
    series = make_intraday([100.0, 101.0, 100.0, 101.0])
    out, diag = dedup_closed_market(series)
    assert np.array_equal(out.closes, series.closes)
    assert diag.removed == 0


def test_dedup_all_distinct_untouched():
    closes = 100.0 + np.arange(1000) * 0.001
    series = make_intraday(closes)
    out, diag = dedup_closed_market(series)
    assert len(out) == 1000
    assert diag.removed == 0


_DAYS = np.datetime64("2025-01-02", "s") + np.arange(3) * np.timedelta64(1, "D")


@pytest.mark.parametrize("timestamps, closes, message", [
    (_DAYS, [1.0, 2.0], "timestamps and closes must be 1-d arrays of equal length"),
    (_DAYS[None, :], [[1.0, 2.0, 3.0]], "timestamps and closes must be 1-d arrays of equal length"),
    (_DAYS[::-1], [1.0, 2.0, 3.0], "timestamps must be strictly increasing"),
    (_DAYS, [1.0, 0.0, 3.0], "closes must be finite and positive"),
    (_DAYS, [1.0, math.nan, 3.0], "closes must be finite and positive"),
    (_DAYS + np.timedelta64(3600, "s"), [1.0, 2.0, 3.0],
     "daily series must not retain a time-of-day component"),
], ids=["lengths", "2-d", "descending", "zero close", "nan close", "time of day"])
def test_price_series_refuses_invalid_arrays(timestamps, closes, message):
    with pytest.raises(ValueError) as caught:
        PriceSeries("t", Frequency.DAILY, timestamps, closes)
    assert str(caught.value) == message


def test_dedup_daily_returns_series_unchanged():
    series = make_daily([100.0] * 10)
    out, diag = dedup_closed_market(series)
    assert out is series
    assert diag.removed == 0


@settings(max_examples=100)
@given(
    closes=st.lists(st.sampled_from([100.0, 101.0, 102.0]), min_size=1, max_size=60),
    run_length=st.integers(1, 8),
)
def test_dedup_matches_oracle_and_is_idempotent(closes, run_length):
    series = make_intraday(closes, bars_per_day=10)
    once, diag = dedup_closed_market(series, run_length=run_length)
    expected = _dedup_oracle(closes, run_length)
    assert np.array_equal(once.timestamps, series.timestamps[expected])
    assert diag.removed == len(closes) - len(expected)
    twice, diag2 = dedup_closed_market(once, run_length=run_length)
    assert np.array_equal(twice.closes, once.closes)
    assert diag2.removed == 0


# ----------------------------------------------------------------------
# aggregate_to_daily
# ----------------------------------------------------------------------

def _last_per_date_oracle(series):
    out = {}
    for ts, close in zip(series.timestamps, series.closes):
        out[ts.astype("datetime64[D]")] = close
    return out


def test_aggregate_two_dates():
    series = make_intraday([100.0, 102.0, 101.0, 98.0, 97.0, 99.0], bars_per_day=3)
    daily = aggregate_to_daily(series)
    assert daily.frequency is Frequency.DAILY
    assert daily.closes.tolist() == [101.0, 99.0]
    assert str(daily.timestamps[0]) == "2025-01-02T00:00:00"


def test_aggregate_single_date():
    series = make_intraday([100.0, 102.0, 101.0], bars_per_day=78)
    daily = aggregate_to_daily(series)
    assert len(daily) == 1
    assert daily.closes[0] == 101.0


def test_aggregate_matches_group_by_oracle():
    rng = np.random.default_rng(5)
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.001, 20 * 78)))
    series = make_intraday(closes, bars_per_day=78)
    daily = aggregate_to_daily(series)
    oracle = _last_per_date_oracle(series)
    assert len(daily) == len(oracle) == 20
    for ts, close in zip(daily.timestamps, daily.closes):
        assert oracle[ts.astype("datetime64[D]")] == close


def test_aggregate_length_equals_distinct_dates():
    rng = np.random.default_rng(6)
    for bars in (1, 5, 78):
        closes = 100.0 + rng.random(3 * bars)
        series = make_intraday(closes, bars_per_day=bars)
        assert len(aggregate_to_daily(series)) == len(np.unique(series.dates()))


def test_aggregate_empty_rejected():
    series = make_intraday([], bars_per_day=78)
    with pytest.raises(EmptyInput):
        aggregate_to_daily(series)
