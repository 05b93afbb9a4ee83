import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from entroscope import (
    BinningSpec, Frequency, ReturnKind, Shock, ShockShape, SpectrumTable, SynthSpec,
    WindowSequenceSpec, generate, serialize_csv, window_bounds,
)
from entroscope import cli, codec
from entroscope.cli import _monthly_csv, _spectrum_csv, _write, load_config, main

from _fixtures import make_daily, make_intraday


def write_config(tmp_path, instruments, name="config.json", **extra):
    config = {
        "instruments": [
            {"id": i, "path": str(p), "frequency": f} for i, p, f in instruments
        ],
        "out_dir": str(tmp_path / "out"),
    }
    config.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def write_synth_fixture(tmp_path, name="synth", **kwargs):
    defaults = dict(seed=7, n_days=20, bars_per_day=78, volatility=0.001)
    defaults.update(kwargs)
    series, log = generate(SynthSpec(instrument_id=name, **defaults))
    path = tmp_path / f"{name}_raw.csv"
    path.write_text(serialize_csv(series), encoding="utf-8")
    return path, series, log


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------

def test_ingest_clean_file(tmp_path, capsys):
    path, series, _ = write_synth_fixture(tmp_path)
    config = write_config(tmp_path, [("synth", path, "5min")])
    assert main(["ingest", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "dropped=0" in out
    normalized = tmp_path / "out" / "synth.csv"
    assert normalized.exists()
    assert normalized.read_text().startswith("timestamp,close\n")


def test_ingest_counts_bad_rows(tmp_path, capsys):
    path, _, _ = write_synth_fixture(tmp_path)
    text = path.read_text()
    text += "2025-02-30 09:30:00,100.0\nbroken,1.0\n2025-01-08 09:30:00,-3\n"
    bad_path = tmp_path / "bad.csv"
    bad_path.write_text(text)
    config = write_config(tmp_path, [("bad", bad_path, "5min")])
    assert main(["ingest", "--config", str(config)]) == 0
    assert "dropped=3" in capsys.readouterr().out


def test_ingest_missing_file_no_partial_outputs(tmp_path, capsys):
    path, _, _ = write_synth_fixture(tmp_path)
    config = write_config(
        tmp_path,
        [("ok", path, "5min"), ("gone", tmp_path / "nope.csv", "5min")],
    )
    assert main(["ingest", "--config", str(config)]) == 2
    assert "not found" in capsys.readouterr().err
    assert not (tmp_path / "out" / "ok.csv").exists()


def test_ingest_applies_dedup(tmp_path, capsys):
    closes = np.concatenate([[100.0] * 9, 101.0 + np.arange(30) * 0.01])
    series = make_intraday(closes, bars_per_day=39, instrument="dup")
    path = tmp_path / "dup.csv"
    path.write_text(serialize_csv(series))
    config = write_config(tmp_path, [("dup", path, "5min")])
    assert main(["ingest", "--config", str(config)]) == 0
    assert "removed=8" in capsys.readouterr().out


def test_ingest_continues_past_undecodable_file(tmp_path, capsys):
    good, _, _ = write_synth_fixture(tmp_path, name="good")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"timestamp,close\n\xff\xfe\x00broken\n")
    config = write_config(tmp_path, [("bad", bad, "5min"), ("good", good, "5min")])
    assert main(["ingest", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("bad: error:")
    with pytest.raises(UnicodeDecodeError) as text_mode:
        bad.read_text(encoding="utf-8")
    assert captured.err == f"bad: error: {text_mode.value}\n"
    assert "good: rows=" in captured.out
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["good.csv"]


def test_ingest_unparseable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("timestamp,close\n")
    config = write_config(tmp_path, [("empty", path, "daily")])
    assert main(["ingest", "--config", str(config)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "compare", "spectrum"])
def test_oversized_csv_field_exits_2_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "long.csv"
    path.write_text("timestamp,close\n2025-01-02,100.0\n2025-01-03," + "1" * 200_000 + "\n")
    config = write_config(tmp_path, [("long", path, "daily")], anchor_date="2025-01-03")
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("long: error: ")
    assert "field larger than field limit" in err


ONE_PRICE = "timestamp,close\n2025-01-02,100.0\n"
MIXED = "timestamp,close\n2025-01-02,100.0\n2025-01-03 09:30:00,101.0\n"

# Each case: command and flags, file text, frequency, extra config keys,
# the exact stderr and the exit code. The instrument is named once.
ERROR_LINES = {
    "ingest header only": (
        ["ingest"], "timestamp,close\n", "daily", {}, "e: error: no valid rows\n", 2,
    ),
    "ingest mixed stamps": (
        ["ingest"], MIXED, "daily", {},
        "e: error: file mixes date-only and intraday timestamps\n", 2,
    ),
    "compare one price": (
        ["compare"], ONE_PRICE, "daily", {"anchor_date": "2025-01-02"},
        "e: error: need at least 2 prices\n", 3,
    ),
    "compare nominal one price": (
        ["compare"], ONE_PRICE, "daily", {"anchor_date": "2025-01-02", "return_kind": "nominal"},
        "e: error: need at least 2 prices\n", 3,
    ),
    "compare anchor before data": (
        ["compare"], None, "5min", {"anchor_date": "2024-01-02"},
        "e: error: no data before 2024-01-02\n", 2,
    ),
    "spectrum empty date range": (
        ["spectrum", "--from-date", "2030-01-01"], None, "5min", {},
        "e: error: no observations in requested date range\n", 2,
    ),
    "pmf one price": (
        ["pmf", "--day", "2025-01-02"], ONE_PRICE, "daily", {},
        "e: error: need at least 2 prices\n", 3,
    ),
    "pmf day without data": (
        ["pmf", "--day", "2030-01-01"], None, "5min", {},
        "e: error: no observations on 2030-01-01\n", 2,
    ),
    "pmf span too long": (
        ["pmf", "--day", "2025-01-03", "--span-days", "40"], None, "5min", {},
        "e: error: only 1 trading days precede 2025-01-03 (requested 40)\n", 2,
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_LINES))
def test_error_line_names_instrument_once(tmp_path, capsys, case):
    command, text, frequency, extra, want_err, want_code = ERROR_LINES[case]
    if text is None:
        path, _, _ = write_synth_fixture(tmp_path, name="e")
    else:
        path = tmp_path / "e.csv"
        path.write_text(text)
    config = write_config(tmp_path, [("e", path, frequency)], **extra)
    assert main([command[0], "--config", str(config), *command[1:]]) == want_code
    assert capsys.readouterr().err == want_err


# ----------------------------------------------------------------------
# config loading and output writing
# ----------------------------------------------------------------------

def _without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


def _valid_with(**extra):
    return lambda entry, _: {"instruments": [entry], **extra}


# Each case maps a valid instrument entry to a config that must be refused.
MALFORMED = {
    "missing id": lambda entry, _: {"instruments": [_without(entry, "id")]},
    "missing path": lambda entry, _: {"instruments": [_without(entry, "path")]},
    "missing frequency": lambda entry, _: {"instruments": [_without(entry, "frequency")]},
    "unknown frequency": lambda entry, _: {"instruments": [{**entry, "frequency": "1h"}]},
    "directory path": lambda entry, tmp: {"instruments": [{**entry, "path": str(tmp)}]},
    "instruments object": lambda entry, _: {"instruments": entry},
    "top-level list": lambda entry, _: [entry],
    "unknown key": _valid_with(window=5),
    "unknown sequence key": _valid_with(sequence={"step": 3}),
    "string window_days": _valid_with(window_days="5"),
    "string theta": _valid_with(theta="3"),
    "string steps": _valid_with(sequence={"steps": "3"}),
    "string dedup_run_length": _valid_with(dedup_run_length="6"),
    "string aggregate_daily": _valid_with(aggregate_daily="no"),
    "bool baseline": _valid_with(baseline=True),
    "unknown range_policy": _valid_with(range_policy="rolling"),
    "unknown anchor_mode": _valid_with(sequence={"anchor_mode": "sideways"}),
}


@pytest.mark.parametrize("command", [
    ["ingest"], ["compare"], ["spectrum"], ["pmf", "--day", "2025-01-10", "--span-days", "2"],
])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, case, command):
    path, _, _ = write_synth_fixture(tmp_path)
    raw = MALFORMED[case]({"id": "synth", "path": str(path), "frequency": "5min"}, tmp_path)
    if isinstance(raw, dict):
        raw.update(anchor_date="2025-01-10", out_dir=str(tmp_path / "out"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main([command[0], "--config", str(config), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


# Each case: config values and flags out of range, and the key the one-line
# message must name.
OUT_OF_RANGE = {
    "theta NaN": ({"theta": float("nan")}, [], "config.theta"),
    "theta Infinity": ({"theta": float("inf")}, [], "config.theta"),
    "theta negative": ({"theta": -1.0}, [], "config.theta"),
    "theta zero": ({"theta": 0}, [], "config.theta"),
    "window_days zero": ({"window_days": 0}, [], "config.window_days"),
    "baseline zero": ({"baseline": 0}, [], "config.baseline"),
    "min_persistence zero": ({"min_persistence": 0}, [], "config.min_persistence"),
    "dedup_run_length zero": ({"dedup_run_length": 0}, [], "config.dedup_run_length"),
    "bins zero": ({"bins": 0}, [], "config.bins"),
    "increment zero": ({"sequence": {"increment": 0}}, [], "config.sequence.increment"),
    "stride zero": ({"sequence": {"stride": 0}}, [], "config.sequence.stride"),
    "base_length one": ({"sequence": {"base_length": 1}}, [], "config.sequence.base_length"),
    "steps negative": ({"sequence": {"steps": -1}}, [], "config.sequence.steps"),
    "flag theta nan": ({}, ["--theta", "nan"], "theta"),
    "flag theta negative": ({}, ["--theta", "-1"], "theta"),
    "flag bins zero": ({}, ["--bins", "0"], "bins"),
}


@pytest.mark.parametrize("command", [
    ["ingest"], ["compare"], ["spectrum"], ["pmf", "--day", "2025-01-10", "--span-days", "2"],
])
@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_value_exits_2_naming_key(tmp_path, capsys, case, command):
    extra, flags, key = OUT_OF_RANGE[case]
    path, _, _ = write_synth_fixture(tmp_path)
    config = write_config(tmp_path, [("synth", path, "5min")], anchor_date="2025-01-10", **extra)
    assert main([command[0], "--config", str(config), *command[1:], *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {key}: ")
    assert not (tmp_path / "out").exists()


def test_readme_config_reference_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config reference", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
    reference = json.loads(re.sub(r"\s*//.*", "", block))
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference), encoding="utf-8")
    config = load_config(path)
    for key, value in reference.items():
        if key not in ("instruments", "sequence", "return_kind"):
            assert getattr(config, key) == value
    assert config.instruments[0].id == "SPX"
    assert config.instruments[0].frequency is Frequency.FIVE_MINUTE
    assert config.return_kind is ReturnKind.LOG
    assert vars(config.sequence) == reference["sequence"]

    path.write_text(json.dumps({"theta": 3}), encoding="utf-8")
    theta = load_config(path).theta
    assert theta == 3.0 and type(theta) is float


def test_failed_write_leaves_no_target_and_no_temp_file(tmp_path, capsys, monkeypatch):
    path, _, _ = write_synth_fixture(tmp_path)
    config = write_config(tmp_path, [("synth", path, "5min")])

    def failing_replace(src, dst):
        raise OSError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(["ingest", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("synth: error: cannot rename")
    assert list((tmp_path / "out").iterdir()) == []


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def _price_path_from_returns(returns):
    prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    return prices


def test_compare_identical_windows_zero_pct(tmp_path):
    pattern = [0.011, -0.007, 0.003, 0.016, -0.012, 0.005, 0.009, -0.004, 0.002, 0.014]
    prices = _price_path_from_returns(pattern + pattern)
    series = make_daily(prices, instrument="rep")
    path = tmp_path / "rep.csv"
    path.write_text(serialize_csv(series))
    anchor = str(series.timestamps[11].astype("datetime64[D]"))
    config = write_config(
        tmp_path, [("rep", path, "daily")], anchor_date=anchor, window_days=10
    )
    assert main(["compare", "--config", str(config)]) == 0
    rows = (tmp_path / "out" / "compare.csv").read_text().strip().splitlines()
    header, row = rows
    cells = row.split(",")
    assert cells[0] == "rep"
    assert float(cells[3]) == 0.0  # entropy pct diff
    assert float(cells[6]) == 0.0  # std-dev pct diff


def test_compare_lower_occupancy_lowers_entropy(tmp_path):
    before = np.arange(8) + 0.5                      # one value per bin
    after = np.array([0.5, 0.5, 1.5, 1.5, 2.5, 2.5, 3.5, 7.5])  # five bins
    prices = _price_path_from_returns(np.concatenate([before, after]))
    series = make_daily(prices, instrument="occ")
    path = tmp_path / "occ.csv"
    path.write_text(serialize_csv(series))
    anchor = str(series.timestamps[9].astype("datetime64[D]"))
    config = write_config(
        tmp_path, [("occ", path, "daily")], anchor_date=anchor, window_days=8, bins=8
    )
    assert main(["compare", "--config", str(config)]) == 0
    _, row = (tmp_path / "out" / "compare.csv").read_text().strip().splitlines()
    cells = row.split(",")
    assert float(cells[2]) < float(cells[1])


def test_compare_rows_satisfy_pct_identity(tmp_path):
    path, series, _ = write_synth_fixture(tmp_path, seed=19)
    anchor = str(series.timestamps[len(series) // 2].astype("datetime64[D]"))
    config = write_config(
        tmp_path, [("synth", path, "5min")], anchor_date=anchor, window_days=9
    )
    assert main(["compare", "--config", str(config)]) == 0
    _, row = (tmp_path / "out" / "compare.csv").read_text().strip().splitlines()
    cells = [float(c) for c in row.split(",")[1:]]
    for b, a, pct in (cells[0:3], cells[3:6]):
        # columns carry 6 decimals; propagate that rounding through the formula
        bound = 2e-6 * 2 / (a + b) * (1 + abs(pct)) + 1e-6
        assert pct == pytest.approx((a - b) / ((a + b) / 2), abs=bound)


def test_compare_continues_past_single_failure(tmp_path, capsys):
    good, series, _ = write_synth_fixture(tmp_path, seed=23)
    bad = tmp_path / "short.csv"
    bad.write_text("timestamp,close\n2025-01-02 09:30:00,100.0\n")
    anchor = str(series.timestamps[len(series) // 2].astype("datetime64[D]"))
    config = write_config(
        tmp_path,
        [("bad", bad, "5min"), ("good", good, "5min")],
        anchor_date=anchor,
        window_days=5,
    )
    assert main(["compare", "--config", str(config)]) == 3
    assert "bad: error" in capsys.readouterr().err
    rows = (tmp_path / "out" / "compare.csv").read_text().strip().splitlines()
    assert len(rows) == 2 and rows[1].startswith("good,")


TRUNCATED_COMPARE = {
    "both sides truncated": ("2025-01-17", 0, (
        "short: warning: only 14 trading days before 2025-01-17 (requested 100)\n"
        "short: warning: only 16 trading days available at or after 2025-01-17"
        " (requested 100)\n"
    )),
    "warning then error": ("2025-03-01", 2, (
        "short: warning: only 30 trading days before 2025-03-01 (requested 100)\n"
        "short: error: 2025-03-01 is after the last observation\n"
    )),
}


@pytest.mark.parametrize("case", list(TRUNCATED_COMPARE))
def test_compare_truncated_windows_warn_in_one_line_each(tmp_path, capsys, case):
    anchor, code, stderr = TRUNCATED_COMPARE[case]
    prices = 100.0 * np.exp(np.cumsum(np.random.default_rng(3).normal(0, 0.01, 31)))
    path = tmp_path / "short.csv"
    path.write_text(serialize_csv(make_daily(prices, instrument="short")))
    config = write_config(
        tmp_path, [("short", path, "daily")], anchor_date=anchor, window_days=100
    )
    assert main(["compare", "--config", str(config)]) == code
    assert capsys.readouterr().err == stderr
    rows = (tmp_path / "out" / "compare.csv").read_text().strip().splitlines()
    assert len(rows) == (2 if code == 0 else 1)


def test_compare_all_failures_exit_3(tmp_path, capsys):
    bad = tmp_path / "short.csv"
    bad.write_text("timestamp,close\n2025-01-02 09:30:00,100.0\n")
    config = write_config(
        tmp_path, [("bad", bad, "5min")], anchor_date="2025-01-02", window_days=5
    )
    assert main(["compare", "--config", str(config)]) == 3


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------

SEQ_SHORT = {"base_length": 78, "increment": 26, "steps": 3, "stride": 26}


def test_spectrum_shocked_fixture_emits_one_event(tmp_path):
    path, _, log = write_synth_fixture(
        tmp_path, shocks=(Shock(12, 10.0, ShockShape.DISPERSED_DAY),)
    )
    config = write_config(
        tmp_path, [("synth", path, "5min")], sequence=SEQ_SHORT
    )
    assert main(["spectrum", "--config", str(config)]) == 0
    events = (tmp_path / "out" / "synth_events.csv").read_text().strip().splitlines()
    assert events[0] == "onset_timestamp,peak_value,ramp_slope,persistence"
    assert len(events) == 2  # header + exactly one event


def test_spectrum_zero_steps_single_h_per_sequence(tmp_path):
    path, _, _ = write_synth_fixture(tmp_path, seed=29)
    config = write_config(
        tmp_path,
        [("synth", path, "5min")],
        sequence={"base_length": 78, "steps": 0, "stride": 78},
    )
    assert main(["spectrum", "--config", str(config)]) == 0
    rows = (tmp_path / "out" / "synth_spectrum.csv").read_text().strip().splitlines()
    ks = {row.split(",")[2] for row in rows[1:]}
    assert ks == {"0"}
    sequence_ids = [row.split(",")[0] for row in rows[1:]]
    assert len(sequence_ids) == len(set(sequence_ids))


def test_spectrum_monthly_profile_written(tmp_path):
    path, _, _ = write_synth_fixture(tmp_path, seed=37, n_days=40)
    config = write_config(tmp_path, [("synth", path, "5min")], sequence=SEQ_SHORT)
    assert main(["spectrum", "--config", str(config)]) == 0
    monthly = (tmp_path / "out" / "synth_monthly.csv").read_text().strip().splitlines()
    assert monthly[0] == "month,mean_peak_entropy,max_peak_entropy,sequences"
    months = [row.split(",")[0] for row in monthly[1:]]
    assert months == sorted(months) and months[0].startswith("2025-")


@pytest.mark.parametrize("frequency", [Frequency.FIVE_MINUTE, Frequency.DAILY])
def test_spectrum_csv_bytes_equal_fstring_rows(frequency):
    # More sequences than one writer block, and indices, k and window
    # lengths across the 9 -> 10 and 99 -> 100 digit widths.
    n_windows = 12
    n_sequences = codec.BLOCK_ROWS // n_windows + 150
    geometry = WindowSequenceSpec(9, 9, n_windows - 1, sequence_count=n_sequences)
    starts, ends = window_bounds(n_sequences + geometry.span, geometry)
    rng = np.random.default_rng(31)
    values = rng.random(starts.shape) * 3.0
    values[::5, 0] = 0.0
    values[3, :] = 1.25
    step = np.timedelta64(86400 if frequency is Frequency.DAILY else 10807, "s")
    anchors = np.datetime64("2024-11-30T22:00:00") + step * np.arange(n_sequences)
    if frequency is Frequency.DAILY:
        anchors = anchors.astype("datetime64[D]").astype("datetime64[s]")
    table = SpectrumTable(values, starts, ends, anchors, BinningSpec(7))
    spectrum = b"".join(_spectrum_csv(table, frequency))
    monthly = _monthly_csv(table)

    unit = "D" if frequency is Frequency.DAILY else "s"
    stamps = [s.replace("T", " ") for s in np.datetime_as_string(anchors, unit=unit).tolist()]
    want = ["sequence_index,anchor_timestamp,k,window_len,H\n"]
    for j, stamp in enumerate(stamps):
        for k, length in enumerate((ends[j] - starts[j]).tolist()):
            want.append(f"{j},{stamp},{k},{length},{values[j, k]:.6f}\n")
    assert spectrum == "".join(want).encode("ascii")

    assert monthly.count(b"\n") > 3
    assert monthly == _monthly_rows(values, anchors)


def _monthly_rows(values, anchors):
    """``_monthly_csv`` of a table of ``values`` and ``anchors``, from
    f-strings over ``np.unique`` months."""
    peaks = values.max(axis=1)
    month_of = anchors.astype("datetime64[M]")
    want = ["month,mean_peak_entropy,max_peak_entropy,sequences\n"]
    for month in np.unique(month_of):
        group = peaks[month_of == month]
        want.append(f"{month},{np.mean(group):.6f},{group.max():.6f},{len(group)}\n")
    return "".join(want).encode("ascii")


_MONTHLY_ANCHORS = {
    # Anchors in January, April, December and the next February only: the
    # months between get no row.
    "skipped months": np.concatenate([
        np.datetime64(day) + np.arange(0, 7 * 3600, 1800) * np.timedelta64(1, "s")
        for day in ("2025-01-31", "2025-04-01", "2025-04-02", "2025-12-31", "2026-02-27")
    ]),
    "one month": np.datetime64("2025-03-03T09:30:00") + np.arange(200) * np.timedelta64(300, "s"),
    "daily anchors": np.datetime64("2024-12-30T00:00:00") + np.arange(100) * np.timedelta64(1, "D"),
}


@pytest.mark.parametrize("case", list(_MONTHLY_ANCHORS))
def test_monthly_csv_bytes_equal_fstring_rows(case):
    anchors = _MONTHLY_ANCHORS[case].astype("datetime64[s]")
    geometry = WindowSequenceSpec(5, 2, 2, sequence_count=len(anchors))
    starts, ends = window_bounds(len(anchors) + geometry.span, geometry)
    values = np.random.default_rng(43).random(starts.shape) * 2.0
    table = SpectrumTable(values, starts, ends, anchors, BinningSpec(7))
    assert _monthly_csv(table) == _monthly_rows(values, anchors)


def test_write_failing_mid_stream_leaves_no_file(tmp_path):
    def blocks():
        yield b"sequence_index,anchor_timestamp,k,window_len,H\n"
        raise RuntimeError("block failed")

    target = tmp_path / "out" / "x_spectrum.csv"
    with pytest.raises(RuntimeError, match="block failed"):
        _write(target, blocks())
    assert list(target.parent.iterdir()) == []


def test_spectrum_date_filter_restricts_sequences(tmp_path):
    path, series, _ = write_synth_fixture(tmp_path, seed=59, n_days=30)
    config = write_config(tmp_path, [("synth", path, "5min")], sequence=SEQ_SHORT)
    assert main([
        "spectrum", "--config", str(config),
        "--from-date", "2025-01-10", "--to-date", "2025-01-24",
    ]) == 0
    rows = (tmp_path / "out" / "synth_spectrum.csv").read_text().strip().splitlines()
    anchors = sorted({row.split(",")[1] for row in rows[1:]})
    assert anchors[0] >= "2025-01-10" and anchors[-1] <= "2025-01-24 23:59:59"


def test_spectrum_too_short_exits_3(tmp_path, capsys):
    path, _, _ = write_synth_fixture(tmp_path, seed=41, n_days=2)
    config = write_config(tmp_path, [("synth", path, "5min")], sequence=SEQ_SHORT)
    assert main(["spectrum", "--config", str(config)]) == 3
    assert "error" in capsys.readouterr().err


def test_spectrum_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    # A huge bin count can ask for more memory than there is. A stub that
    # raises stands in for the spectra, so the test allocates nothing.
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 4.37 GiB for an array")

    monkeypatch.setattr(cli, "spectra_for_series", too_large)
    path, _, _ = write_synth_fixture(tmp_path, seed=37)
    config = write_config(tmp_path, [("synth", path, "5min")], sequence=SEQ_SHORT)
    assert main(["spectrum", "--config", str(config), "--bins", "1000000"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "synth: error: Unable to allocate 4.37 GiB for an array\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_spectrum_continues_past_failing_instrument(tmp_path, capsys):
    short, _, _ = write_synth_fixture(tmp_path, name="short", seed=41, n_days=2)
    good, _, _ = write_synth_fixture(tmp_path, name="good", seed=37, n_days=20)
    config = write_config(
        tmp_path, [("short", short, "5min"), ("good", good, "5min")], sequence=SEQ_SHORT
    )
    assert main(["spectrum", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("short: error:")
    assert "good: sequences=" in captured.out
    written = sorted(path.name for path in (tmp_path / "out").iterdir())
    assert written == ["good_events.csv", "good_monthly.csv", "good_spectrum.csv"]


# ----------------------------------------------------------------------
# pmf
# ----------------------------------------------------------------------

def test_pmf_snapshot_files_and_contrast(tmp_path, capsys):
    path, series, log = write_synth_fixture(
        tmp_path, shocks=(Shock(16, 10.0, ShockShape.DISPERSED_DAY),)
    )
    day = str(log[0].timestamp.astype("datetime64[D]"))
    config = write_config(tmp_path, [("synth", path, "5min")])
    assert main(["pmf", "--config", str(config), "--day", day]) == 0
    out = capsys.readouterr().out
    h_day, h_span = (float(part.split("=")[1]) for part in out.split()[1:3])
    assert h_day > h_span
    day_rows = (tmp_path / "out" / "synth_pmf_day.csv").read_text().splitlines()
    span_rows = (tmp_path / "out" / "synth_pmf_span.csv").read_text().splitlines()
    assert day_rows[0] == "bin_lo,bin_hi,mass"
    assert len(day_rows) == len(span_rows)
    for rows in (day_rows, span_rows):
        total = sum(float(r.split(",")[2]) for r in rows[1:])
        assert total == pytest.approx(1.0, abs=1e-3)


def test_pmf_day_equals_span(tmp_path, capsys):
    path, series, _ = write_synth_fixture(tmp_path, seed=43, n_days=3)
    day = str(series.timestamps[-1].astype("datetime64[D]"))
    config = write_config(tmp_path, [("synth", path, "5min")])
    assert main(["pmf", "--config", str(config), "--day", day, "--span-days", "0"]) == 0
    day_text = (tmp_path / "out" / "synth_pmf_day.csv").read_text()
    span_text = (tmp_path / "out" / "synth_pmf_span.csv").read_text()
    assert day_text == span_text


def test_pmf_constant_prices_zero_entropy(tmp_path, capsys):
    series = make_intraday([100.0] * 60, bars_per_day=20, instrument="flat")
    path = tmp_path / "flat.csv"
    path.write_text(serialize_csv(series))
    day = str(series.timestamps[-1].astype("datetime64[D]"))
    config = write_config(tmp_path, [("flat", path, "5min")])
    assert main(["pmf", "--config", str(config), "--day", day, "--span-days", "1"]) == 0
    out = capsys.readouterr().out
    assert "H(day)=0.000000" in out and "H(span)=0.000000" in out


def test_pmf_out_of_range_exits_2(tmp_path, capsys):
    path, _, _ = write_synth_fixture(tmp_path, seed=47, n_days=3)
    config = write_config(tmp_path, [("synth", path, "5min")])
    assert main(["pmf", "--config", str(config), "--day", "2030-01-01"]) == 2


def test_pmf_negative_span_exits_2(tmp_path, capsys):
    path, series, _ = write_synth_fixture(tmp_path, seed=47, n_days=5)
    day = str(series.timestamps[-1].astype("datetime64[D]"))
    config = write_config(tmp_path, [("synth", path, "5min")])
    assert main(["pmf", "--config", str(config), "--day", day, "--span-days", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --span-days: expected a finite number >= 0, got -2\n"
    assert not (tmp_path / "out").exists()


# ----------------------------------------------------------------------
# synth command and determinism
# ----------------------------------------------------------------------

def test_synth_command_writes_fixture_and_log(tmp_path):
    out = tmp_path / "fixtures"
    code = main([
        "synth", "--seed", "99", "--days", "6", "--bars-per-day", "12",
        "--sigma", "0.002", "--shock", "3:10:dispersed_day",
        "--id", "demo", "--out", str(out),
    ])
    assert code == 0
    prices = (out / "demo.csv").read_text().splitlines()
    assert prices[0] == "timestamp,close"
    assert len(prices) == 1 + 6 * 12
    log_rows = (out / "demo_injections.csv").read_text().strip().splitlines()
    assert log_rows[0] == "timestamp,magnitude_sigma,shape"
    assert log_rows[1].endswith(",dispersed_day")


def test_synth_rejects_malformed_shock(tmp_path):
    assert main(["synth", "--seed", "1", "--shock", "oops", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("flags, message", [
    (["--bars-per-day", "200"], "bars_per_day must be at most 174, got 200"),
    (["--bars-per-day", "300"], "bars_per_day must be at most 174, got 300"),
    (["--sigma", "nan"], "volatility must be finite, got nan"),
    (["--mu", "inf"], "drift must be finite, got inf"),
    (["--shock", "1:nan:single_bar"], "shock magnitude_sigma must be finite, got nan"),
])
def test_synth_invalid_spec_exits_2_with_one_line(tmp_path, capsys, flags, message):
    out = tmp_path / "fixtures"
    assert main(["synth", "--seed", "1", "--days", "3", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["", ".", "..", "../esc", "a/b", "a\\b", "a\0b"])
def test_synth_bad_id_exits_2_with_one_line_before_any_output(tmp_path, capsys, name):
    # The output directory sits inside "run", so an id that climbs out of
    # it would still write inside "run".
    out = tmp_path / "run" / "out"
    assert main(["synth", "--seed", "1", "--days", "3", "--id", name, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --id: expected a plain file name, got {name!r}\n"
    assert not (tmp_path / "run").exists()


def test_flags_of_one_call_do_not_reach_the_next(tmp_path, capsys):
    path, _, _ = write_synth_fixture(tmp_path)
    config = write_config(tmp_path, [("synth", path, "5min")])
    first = ["--out", str(tmp_path / "first"), "--dt-col", "when"]
    assert main(["ingest", "--config", str(config), *first]) == 2
    assert main(["ingest", "--config", str(config)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out", "synth_raw.csv"]
    synth = ["synth", "--seed", "1", "--days", "3", "--bars-per-day", "10"]
    assert main([*synth, "--shock", "1:5:single_bar", "--out", str(tmp_path / "s1")]) == 0
    assert main([*synth, "--out", str(tmp_path / "s2")]) == 0
    assert len((tmp_path / "s1" / "synth_injections.csv").read_text().splitlines()) == 2
    assert len((tmp_path / "s2" / "synth_injections.csv").read_text().splitlines()) == 1


# Each case: the command and its flags, the config's anchor_date, and the
# one-line message. Two instruments: a date is checked once, before either.
BAD_DATES = {
    "anchor_date day out of range": (["compare"], "2025-02-30", "config.anchor_date"),
    "anchor_date not a date": (["spectrum"], "soon", "config.anchor_date"),
    "anchor_date NaT": (["compare"], "NaT", "config.anchor_date"),
    "from-date": (["spectrum", "--from-date", "2025-13-01"], None, "--from-date"),
    "to-date": (["spectrum", "--to-date", "x"], None, "--to-date"),
    "to-date empty": (["spectrum", "--to-date", ""], None, "--to-date"),
    "pmf day": (["pmf", "--day", "2025-02-30"], None, "--day"),
}


@pytest.mark.parametrize("case", sorted(BAD_DATES))
def test_bad_date_exits_2_with_one_line_before_any_output(tmp_path, capsys, case):
    command, anchor, where = BAD_DATES[case]
    path, _, _ = write_synth_fixture(tmp_path)
    config = write_config(
        tmp_path, [("a", path, "5min"), ("b", path, "5min")], anchor_date=anchor
    )
    assert main([command[0], "--config", str(config), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    value = anchor if anchor is not None else command[-1]
    assert captured.err == f"error: {where}: expected a date YYYY-MM-DD, got {value!r}\n"
    assert not (tmp_path / "out").exists()


# Each case: the instrument ids of a config, the index of the entry the
# one-line message names, and the rest of the message.
BAD_IDS = {
    "repeated": (["x", "x"], 1, "'x' is already the id of config.instruments[0]"),
    "repeated later": (["a", "b", "a"], 2, "'a' is already the id of config.instruments[0]"),
    "parent directory": (["a", "../escape"], 1, "expected a plain file name, got '../escape'"),
    "subdirectory": (["a/b"], 0, "expected a plain file name, got 'a/b'"),
    "backslash": (["a\\b"], 0, "expected a plain file name, got 'a\\\\b'"),
    "NUL": (["a\0b"], 0, "expected a plain file name, got 'a\\x00b'"),
    "empty": ([""], 0, "expected a plain file name, got ''"),
    "dot": (["."], 0, "expected a plain file name, got '.'"),
    "dot dot": ([".."], 0, "expected a plain file name, got '..'"),
}


@pytest.mark.parametrize("command", [
    ["ingest"], ["compare"], ["spectrum"], ["pmf", "--day", "2025-01-10", "--span-days", "2"],
])
@pytest.mark.parametrize("case", sorted(BAD_IDS))
def test_bad_instrument_id_exits_2_with_one_line_before_any_output(
    tmp_path, capsys, case, command
):
    # The output directory sits inside "run", so an id that climbs out of
    # it would still write inside "run".
    ids, at, message = BAD_IDS[case]
    path, _, _ = write_synth_fixture(tmp_path)
    config = write_config(
        tmp_path, [(i, path, "5min") for i in ids],
        anchor_date="2025-01-10", out_dir=str(tmp_path / "run" / "out"),
    )
    assert main([command[0], "--config", str(config), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config.instruments[{at}].id: {message}\n"
    assert not (tmp_path / "run").exists()


def test_plain_file_name_ids_load(tmp_path):
    path, _, _ = write_synth_fixture(tmp_path)
    ids = ["SPX", "a.b", "..x", "x..", "-", "é", "a b"]
    config = write_config(tmp_path, [(i, path, "5min") for i in ids])
    assert [entry.id for entry in load_config(config).instruments] == ids


@pytest.mark.parametrize("text", ["2025-01-10", "2025-01", "2025-01-10T23:00", " 2025-01-10"])
def test_anchor_date_accepts_what_numpy_reads_as_a_day(tmp_path, text):
    path, _, _ = write_synth_fixture(tmp_path)
    config = write_config(tmp_path, [("a", path, "5min")], anchor_date=text)
    assert load_config(config).anchor_date == text


def test_pipeline_outputs_byte_identical_across_runs(tmp_path):
    path, series, _ = write_synth_fixture(tmp_path, seed=53)
    anchor = str(series.timestamps[len(series) // 2].astype("datetime64[D]"))

    outputs = {}
    for run in ("a", "b"):
        out_dir = tmp_path / f"out_{run}"
        config = write_config(
            tmp_path,
            [("synth", path, "5min")],
            name=f"config_{run}.json",
            anchor_date=anchor,
            window_days=8,
            sequence=SEQ_SHORT,
            out_dir=str(out_dir),
        )
        assert main(["compare", "--config", str(config)]) == 0
        assert main(["spectrum", "--config", str(config)]) == 0
        outputs[run] = {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
        }
    assert outputs["a"] == outputs["b"]
    assert len(outputs["a"]) == 4


SCHEMAS = {
    "compare.csv": (
        "instrument,entropy_before,entropy_after,entropy_pct_diff,"
        "std_before,std_after,std_pct_diff"
    ),
    "synth_spectrum.csv": "sequence_index,anchor_timestamp,k,window_len,H",
    "synth_events.csv": "onset_timestamp,peak_value,ramp_slope,persistence",
    "synth_monthly.csv": "month,mean_peak_entropy,max_peak_entropy,sequences",
}


def test_every_output_csv_parses_under_its_schema(tmp_path):
    path, series, _ = write_synth_fixture(tmp_path, seed=61)
    anchor = str(series.timestamps[len(series) // 2].astype("datetime64[D]"))
    config = write_config(
        tmp_path, [("synth", path, "5min")],
        anchor_date=anchor, window_days=8, sequence=SEQ_SHORT,
    )
    assert main(["compare", "--config", str(config)]) == 0
    assert main(["spectrum", "--config", str(config)]) == 0

    out = tmp_path / "out"
    import csv as csvmod

    for name, header in SCHEMAS.items():
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        assert lines[0] == header
        columns = header.split(",")
        for record in csvmod.DictReader(lines):
            assert set(record) == set(columns)
            for col in columns:
                if col in ("instrument", "anchor_timestamp", "onset_timestamp", "month"):
                    assert record[col]
                else:
                    float(record[col])
