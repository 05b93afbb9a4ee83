import contextlib
import dataclasses
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entroscope import (
    BinnedDistribution, BinningSpec, Frequency, ReturnKind, Shock, ShockShape, SpectrumTable,
    SynthSpec, WindowSequenceSpec, detect_events, generate, log_returns, parse_csv_file,
    pmf_snapshot, serialize_csv, spectra_for_series, velleman_bins,
)
from entroscope import cli, codec
from entroscope.cli import (
    _compare_csv, _monthly_csv, _pmf_csv, _spectrum_csv, _write, load_config, main,
)

from _fixtures import make_daily, make_intraday
from test_ingest import _HEADERS, _ROW, _dirty_csv


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


def test_ingest_refuses_a_close_that_prints_as_zero(tmp_path, capsys):
    # 0.000000 would read back as non-positive and be dropped, so the
    # instrument fails in one line and writes no file; the others run.
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("timestamp,close\n2025-01-02,1.5\n2025-01-03,0.0000001\n"
                    "2025-01-06,1.6\n2025-01-07,1.7\n")
    good, _, _ = write_synth_fixture(tmp_path, name="good")
    config = write_config(tmp_path, [("tiny", tiny, "daily"), ("good", good, "5min")])
    assert main(["ingest", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "tiny: error: close 1e-07 at 2025-01-03T00:00:00 prints as zero\n"
    assert captured.out.startswith("good: rows=")
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
# the exact stderr and the exit code. The instrument is named once, or not
# at all when the command itself fails.
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
    "compare without anchor_date": (
        ["compare"], None, "5min", {}, "error: compare requires anchor_date in the config\n", 2,
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
    "pmf unknown instrument": (
        ["pmf", "--day", "2025-01-02", "--instrument", "zz"], None, "5min", {},
        "error: instrument 'zz' not in config\n", 2,
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
    "no instruments": lambda entry, _: {"instruments": []},
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


# Each case: config values out of range, and the key the one-line message
# must name.
OUT_OF_RANGE = {
    "theta NaN": ({"theta": float("nan")}, "config.theta"),
    "theta Infinity": ({"theta": float("inf")}, "config.theta"),
    "theta negative": ({"theta": -1.0}, "config.theta"),
    "theta zero": ({"theta": 0}, "config.theta"),
    "window_days zero": ({"window_days": 0}, "config.window_days"),
    "baseline zero": ({"baseline": 0}, "config.baseline"),
    "min_persistence zero": ({"min_persistence": 0}, "config.min_persistence"),
    "dedup_run_length zero": ({"dedup_run_length": 0}, "config.dedup_run_length"),
    "bins zero": ({"bins": 0}, "config.bins"),
    "increment zero": ({"sequence": {"increment": 0}}, "config.sequence.increment"),
    "stride zero": ({"sequence": {"stride": 0}}, "config.sequence.stride"),
    "base_length one": ({"sequence": {"base_length": 1}}, "config.sequence.base_length"),
    "steps negative": ({"sequence": {"steps": -1}}, "config.sequence.steps"),
    "stride past int64": (
        {"sequence": {"base_length": 3, "stride": 10**30}}, "config.sequence.stride",
    ),
    "window_days past int64": ({"window_days": 2**63}, "config.window_days"),
}


@pytest.mark.parametrize("command", [
    ["ingest"], ["compare"], ["spectrum"], ["pmf", "--day", "2025-01-10", "--span-days", "2"],
])
@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_value_exits_2_naming_key(tmp_path, capsys, case, command):
    extra, key = OUT_OF_RANGE[case]
    path, _, _ = write_synth_fixture(tmp_path)
    config = write_config(tmp_path, [("synth", path, "5min")], anchor_date="2025-01-10", **extra)
    assert main([command[0], "--config", str(config), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {key}: ")
    assert not (tmp_path / "out").exists()


def test_readme_config_reference_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```jsonc\n(.*?)```", readme, re.S)
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
    # The documented defaults are the code's: every key is named, and all
    # but the example instruments and anchor_date hold RunConfig's default.
    assert list(reference) == [f.name for f in dataclasses.fields(cli.RunConfig)]
    assert list(reference["sequence"]) == [f.name for f in dataclasses.fields(cli.SequenceConfig)]
    default = cli.RunConfig()
    for key in set(reference) - {"instruments", "anchor_date"}:
        assert getattr(config, key) == getattr(default, key), key

    path.write_text(json.dumps({"theta": 3}), encoding="utf-8")
    theta = load_config(path).theta
    assert theta == 3.0 and type(theta) is float


def test_cli_defaults_equal_the_library_defaults():
    # The config's detector keys and pmf --span-days restate library
    # defaults, which README gives once for both layers.
    detector = inspect.signature(detect_events).parameters
    config = cli.RunConfig()
    assert (config.theta, config.min_persistence, config.baseline) == tuple(
        detector[name].default for name in ("threshold", "min_persistence", "baseline")
    )
    args = cli.build_parser().parse_args(["pmf", "--config", "run.json", "--day", "2025-01-02"])
    assert args.span_days == inspect.signature(pmf_snapshot).parameters["preceding_days"].default


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


def test_compare_names_the_metric_whose_difference_is_undefined(tmp_path, capsys):
    # Constant closes: both windows' entropies are 0, so their midpoint is.
    flat = make_daily(np.full(31, 100.0), instrument="flat")
    prices = 100.0 * np.exp(np.cumsum(np.random.default_rng(3).normal(0, 0.01, 31)))
    (tmp_path / "flat.csv").write_text(serialize_csv(flat))
    (tmp_path / "good.csv").write_text(serialize_csv(make_daily(prices, instrument="good")))
    anchor = str(flat.timestamps[11].astype("datetime64[D]"))
    config = write_config(
        tmp_path, [(i, tmp_path / f"{i}.csv", "daily") for i in ("flat", "good")],
        anchor_date=anchor, window_days=10,
    )
    assert main(["compare", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "flat: error: entropy: midpoint of (0.0, 0.0) is zero\n"
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


# Values whose %.6f the codec leaves to Python or renders itself: any
# double, exact ties at the sixth decimal (odd multiples of 1/128) and the
# doubles nearest to (k + 0.5) millionths.
_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**6, 10**6).map(lambda m: (2 * m + 1) / 128),
    st.integers(-10**9, 10**9).map(lambda k: (k + 0.5) / 1e6),
    st.floats(-1e3, 1e3),
)
# Ids as ``IsFileName`` lets them through, non-ASCII ones among them.
_IDS = st.text(st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters="/\\"),
               min_size=1, max_size=6).filter(lambda s: s not in (".", ".."))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_IDS, st.lists(_VALUES, min_size=6, max_size=6)), max_size=6))
def test_compare_csv_bytes_equal_fstring_rows(rows):
    want = ["instrument,entropy_before,entropy_after,entropy_pct_diff,"
            "std_before,std_after,std_pct_diff"]
    for id, (eb, ea, ep, sb, sa, sp) in rows:
        want.append(f"{id},{eb:.6f},{ea:.6f},{ep:.6f},{sb:.6f},{sa:.6f},{sp:.6f}")
    values = [value for _, row in rows for value in row]
    assert _compare_csv([id for id, _ in rows], values) == ("\n".join(want) + "\n").encode()


@settings(max_examples=200, deadline=None)
@given(
    lo=st.one_of(st.floats(-1e6, 1e6), st.integers(-10**6, 10**6).map(lambda m: m / 128)),
    width=st.one_of(st.floats(1e-9, 1e6), st.integers(1, 10**6).map(lambda m: m / 128)),
    counts=st.lists(st.integers(0, 50), min_size=1, max_size=40).filter(any),
)
def test_pmf_csv_bytes_equal_fstring_rows(lo, width, counts):
    hi = lo + width
    assume(hi > lo)
    masses = np.array(counts) / sum(counts)
    dist = BinnedDistribution(BinningSpec(len(counts), lo=lo, hi=hi), lo, hi, masses, sum(counts))
    edges = dist.edges()
    want = ["bin_lo,bin_hi,mass"]
    for i, mass in enumerate(dist.masses):
        want.append(f"{edges[i]:.6f},{edges[i + 1]:.6f},{mass:.6f}")
    assert _pmf_csv(dist) == ("\n".join(want) + "\n").encode()


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


def test_spectrum_per_window_policy_bins_each_window_over_its_own_range(tmp_path):
    path, _, _ = write_synth_fixture(tmp_path, seed=31)
    config = write_config(tmp_path, [("synth", path, "5min")], sequence=SEQ_SHORT,
                          range_policy="per-window")
    assert main(["spectrum", "--config", str(config)]) == 0
    returns = log_returns(parse_csv_file(path, Frequency.FIVE_MINUTE, "synth")[0])
    spec = WindowSequenceSpec(**SEQ_SHORT)
    table = spectra_for_series(returns, spec, BinningSpec(velleman_bins(spec.base_length)))
    assert (tmp_path / "out" / "synth_spectrum.csv").read_bytes() == b"".join(
        _spectrum_csv(table, Frequency.FIVE_MINUTE)
    )


@pytest.mark.parametrize("frequency", [Frequency.FIVE_MINUTE, Frequency.DAILY])
def test_spectrum_csv_bytes_equal_fstring_rows(frequency):
    # More sequences than one writer block, and indices, k and window
    # lengths across the 9 -> 10 and 99 -> 100 digit widths.
    n_windows = 12
    n_sequences = codec.BLOCK_ROWS // n_windows + 150
    geometry = WindowSequenceSpec(9, 9, n_windows - 1)
    rng = np.random.default_rng(31)
    values = rng.random((n_sequences, n_windows)) * 3.0
    values[::5, 0] = 0.0
    values[3, :] = 1.25
    step = np.timedelta64(86400 if frequency is Frequency.DAILY else 10807, "s")
    anchors = np.datetime64("2024-11-30T22:00:00") + step * np.arange(n_sequences)
    if frequency is Frequency.DAILY:
        anchors = anchors.astype("datetime64[D]").astype("datetime64[s]")
    table = SpectrumTable(values, anchors, BinningSpec(7), geometry)
    assert b"".join(_spectrum_csv(table, frequency)) == _spectrum_rows(table, frequency)
    monthly = _monthly_csv(table)
    assert monthly.count(b"\n") > 3
    assert monthly == _monthly_rows(values, anchors)


def _spectrum_rows(table, frequency):
    """``_spectrum_csv`` of ``table``, from f-strings."""
    unit = "D" if frequency is Frequency.DAILY else "s"
    stamps = np.datetime_as_string(table.anchor_timestamps, unit=unit).tolist()
    lengths = table.spec.lengths.tolist()
    want = ["sequence_index,anchor_timestamp,k,window_len,H\n"]
    for j, (stamp, row) in enumerate(zip(stamps, table.values.tolist())):
        stamp = stamp.replace("T", " ")
        want += [f"{j},{stamp},{k},{n},{v:.6f}\n" for k, (n, v) in enumerate(zip(lengths, row))]
    return "".join(want).encode("ascii")


def test_spectrum_csv_cache_of_earlier_blocks_equals_fstring_rows():
    # Five writer blocks of a stride-1-like table whose entropies repeat
    # (a few hundred distinct values), as at bar stride. Later blocks add
    # near ties that fixed6 hands to Python, a value >= 10 in block 2 that
    # sets the table's text width, and, in block 3 only, a value whose
    # cache slot is that of a value cached since block 0, before and after
    # it.
    n_windows = 4
    block = codec.BLOCK_ROWS // n_windows
    n_sequences = 4 * block + 300
    rng = np.random.default_rng(47)
    near_ties = (rng.integers(0, 3_000_000, 40) + 0.5) / 1e6
    near_ties += rng.integers(-3, 4, 40) * np.spacing(near_ties)
    pool = np.concatenate([np.round(rng.random(200) * 3, 7), near_ties[:20], [0.0]])
    values = rng.choice(pool, (n_sequences, n_windows))
    values[block : 2 * block : 7, 3] = rng.choice(near_ties[20:], len(range(block, 2 * block, 7)))
    values[2 * block + 11, 2] = 12.3456785
    values[3 * block + 5 :: 97, 1] = 10.25
    cached = values[0, 0]
    cells = values.size
    probe = cli._Rendered(values[:1, 0], cli._items(codec.fixed6(values[:1, 0]), 9), cells)
    candidates = 1.0 + rng.random(1 << 20) * 2
    slot = probe._slots(np.array([cached]).view(np.uint64))[0]
    sharing = candidates[probe._slots(candidates.view(np.uint64)) == slot][0]
    values[3 * block + 1, :2] = [sharing, cached]
    values[3 * block + 2, 1:3] = [cached, sharing]
    # ``cached`` and ``sharing`` are the only distinct values that share a slot.
    distinct = np.unique(values)
    slots = probe._slots(distinct.view(np.uint64))
    assert len(np.unique(slots)) == len(distinct) - 1
    assert sharing not in values[: 3 * block] and 12.3456785 not in values[: 2 * block]

    geometry = WindowSequenceSpec(40, 1, n_windows - 1)
    anchors = np.datetime64("2025-01-02T09:30:00") + np.arange(n_sequences) * np.timedelta64(
        300, "s")
    table = SpectrumTable(values, anchors, BinningSpec(7), geometry)
    assert b"".join(_spectrum_csv(table, Frequency.FIVE_MINUTE)) == _spectrum_rows(
        table, Frequency.FIVE_MINUTE)


def _writer_case(case):
    """A table and its frequency that isolate one block layout of the
    writer; entropies lie in [0, 3), whose text has one width, but for
    ``wide-first-block``'s one entropy >= 10."""
    bar = np.timedelta64(300, "s")
    start = np.datetime64("2025-01-02T09:30:00")
    frequency = Frequency.FIVE_MINUTE
    if case == "far-years":
        # Block 1 of 3 holds the first and the last stamp of years
        # 0000..9999, as wide as every other, so nothing in it is padded.
        n_windows = 4
        n_sequences = 3 * (codec.BLOCK_ROWS // n_windows)
        anchors = start + np.arange(n_sequences) * bar
        anchors[n_sequences // 3 + 7 : n_sequences // 3 + 9] = np.array(
            ["0000-01-01T00:00:00", "9999-12-31T23:59:59"], "datetime64[s]")
    elif case == "daily":
        # Three blocks of the default day geometry's 14 windows.
        n_windows = 14
        n_sequences = 2 * (codec.BLOCK_ROWS // n_windows) + 5
        anchors = (start.astype("datetime64[D]") + np.arange(n_sequences)).astype("datetime64[s]")
        frequency = Frequency.DAILY
    elif case == "wide-first-block":
        # The table's only entropy >= 10 sits in block 0 of 3, so every
        # later block's text is narrower than the table's width.
        n_windows = 4
        n_sequences = 3 * (codec.BLOCK_ROWS // n_windows)
        anchors = start + np.arange(n_sequences) * bar
    elif case == "ten-thousand":
        # Block 1 holds indices 8192..10049: 4 and 5 digits.
        n_windows = 2
        n_sequences = 10_050
        anchors = start + np.arange(n_sequences) * bar
    else:  # one sequence
        n_windows = 14
        n_sequences = 1
        anchors = start[None]
    geometry = WindowSequenceSpec(78, 78, n_windows - 1)
    values = np.random.default_rng(53).random((n_sequences, n_windows)) * 3.0
    if case == "wide-first-block":
        values[5, 2] = 10.5
    return SpectrumTable(values, anchors, BinningSpec(18), geometry), frequency


@pytest.mark.parametrize(
    "case", ["far-years", "daily", "wide-first-block", "ten-thousand", "one-sequence"])
def test_spectrum_csv_block_layouts_equal_fstring_rows(case):
    table, frequency = _writer_case(case)
    assert b"".join(_spectrum_csv(table, frequency)) == _spectrum_rows(table, frequency)


def test_spectrum_csv_of_one_block_builds_no_cache(monkeypatch):
    # A table of one writer block, as every day-stride table of the
    # workloads, renders with fixed6 alone; a second block builds the cache.
    built, rendered = [], cli._Rendered

    def recording(*args):
        built.append(args)
        return rendered(*args)

    monkeypatch.setattr(cli, "_Rendered", recording)
    n_windows = 14
    for n_sequences, caches in ((codec.BLOCK_ROWS // n_windows, 0),
                                (codec.BLOCK_ROWS // n_windows + 1, 1)):
        built.clear()
        geometry = WindowSequenceSpec(78, 78, n_windows - 1)
        values = np.random.default_rng(48).random((n_sequences, n_windows)) * 3
        anchors = np.datetime64("2020-01-01T00:00:00") + np.arange(n_sequences) * np.timedelta64(
            1, "D")
        table = SpectrumTable(values, anchors, BinningSpec(18), geometry)
        assert b"".join(_spectrum_csv(table, Frequency.DAILY)) == _spectrum_rows(
            table, Frequency.DAILY)
        assert len(built) == caches


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
    geometry = WindowSequenceSpec(5, 2, 2)
    values = np.random.default_rng(43).random((len(anchors), geometry.steps + 1)) * 2.0
    table = SpectrumTable(values, anchors, BinningSpec(7), geometry)
    assert _monthly_csv(table) == _monthly_rows(values, anchors)


def test_monthly_csv_month_without_anchor_gets_no_row():
    # March 2025 lies between two anchors of one day each and holds none.
    anchors = np.array(
        ["2025-02-28T15:55:00", "2025-04-01T09:30:00", "2025-04-01T09:35:00"],
        dtype="datetime64[s]",
    )
    geometry = WindowSequenceSpec(5, 2, 2)
    table = SpectrumTable(np.array([[0.5, 1.0, 0.25], [1.5, 0.5, 0.5], [0.5, 2.0, 1.0]]),
                          anchors, BinningSpec(7), geometry)
    assert _monthly_csv(table).decode().splitlines()[1:] == [
        "2025-02,1.000000,1.000000,1",
        "2025-04,1.750000,2.000000,2",
    ]


def test_write_failing_mid_stream_leaves_no_file(tmp_path):
    def blocks():
        yield b"sequence_index,anchor_timestamp,k,window_len,H\n"
        raise RuntimeError("block failed")

    # The first file is complete and renamed into place before the second
    # fails; neither is left.
    target = tmp_path / "out" / "x_spectrum.csv"
    with pytest.raises(RuntimeError, match="block failed"):
        _write([(tmp_path / "out" / "x_events.csv", b"onset_timestamp\n"), (target, blocks())])
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
    config = write_config(tmp_path, [("synth", path, "5min")], sequence=SEQ_SHORT, bins=10**6)
    assert main(["spectrum", "--config", str(config)]) == 2
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


def _files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("fault", ["monthly table", "events write"])
def test_failing_spectrum_instrument_leaves_none_of_its_files(tmp_path, capsys, monkeypatch, fault):
    a, _, _ = write_synth_fixture(tmp_path, name="a", seed=37)
    b, _, _ = write_synth_fixture(tmp_path, name="b", seed=38)
    config = write_config(tmp_path, [("a", a, "5min"), ("b", b, "5min")], sequence=SEQ_SHORT)
    alone = write_config(tmp_path, [("b", b, "5min")], name="alone.json", sequence=SEQ_SHORT,
                         out_dir=str(tmp_path / "alone"))
    assert main(["spectrum", "--config", str(alone)]) == 0
    if fault == "monthly table":
        # The first instrument's monthly table fails after its spectrum
        # could have been written.
        monthly, calls = cli._monthly_csv, []

        def failing_monthly(table):
            calls.append(table)
            if len(calls) == 1:
                raise MemoryError("Unable to allocate the monthly table")
            return monthly(table)

        monkeypatch.setattr(cli, "_monthly_csv", failing_monthly)
    else:
        # Its last file fails to write after the other two were written.
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == "a_events.csv":
                raise OSError(f"cannot write {Path(dst).name}")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
    capsys.readouterr()
    assert main(["spectrum", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("a: error: ") and captured.err.count("\n") == 1
    assert captured.out.startswith("b: sequences=")
    assert _files(tmp_path / "out") == _files(tmp_path / "alone")


@pytest.mark.parametrize("command", ["ingest", "spectrum"])
def test_each_good_instrument_writes_what_it_writes_alone(tmp_path, capsys, command):
    g1, _, _ = write_synth_fixture(tmp_path, name="g1", seed=37)
    g2, _, _ = write_synth_fixture(tmp_path, name="g2", seed=38, n_days=25)
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,close\n2025-01-02 09:30:00,-1\n", encoding="utf-8")
    entries = [("g1", g1, "5min"), ("bad", bad, "5min"), ("g2", g2, "5min")]
    config = write_config(tmp_path, entries, sequence=SEQ_SHORT)
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == "bad: error: no valid rows\n"
    alone = {}
    for entry in entries[::2]:
        solo = write_config(tmp_path, [entry], name=f"{entry[0]}.json", sequence=SEQ_SHORT,
                            out_dir=str(tmp_path / entry[0]))
        assert main([command, "--config", str(solo)]) == 0
        alone.update(_files(tmp_path / entry[0]))
    assert len(alone) == {"ingest": 2, "spectrum": 6}[command]
    assert _files(tmp_path / "out") == alone


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
# daily instruments
# ----------------------------------------------------------------------

DAILY_COMPARE = (
    "instrument,entropy_before,entropy_after,entropy_pct_diff,std_before,std_after,std_pct_diff\n"
    "day,2.295595,2.243613,-0.022904,0.007498,0.008472,0.122002\n"
)


def test_daily_instrument_runs_dedup_and_aggregation_unchanged(tmp_path, capsys):
    # Dedup and daily aggregation both return a daily series as it is: a
    # run of 9 equal closes, longer than the dedup run length, stays, and
    # aggregate_daily leaves compare.csv as it is without it.
    rng = np.random.default_rng(71)
    closes = np.concatenate([[100.0] * 9, 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 60)))])
    series = make_daily(closes, instrument="day")
    path = tmp_path / "day.csv"
    path.write_text(serialize_csv(series))
    anchor = str(series.timestamps[40].astype("datetime64[D]"))
    for aggregate in (False, True):
        out = tmp_path / f"out_{aggregate}"
        config = write_config(tmp_path, [("day", path, "daily")], anchor_date=anchor,
                              window_days=28, aggregate_daily=aggregate, out_dir=str(out))
        assert main(["ingest", "--config", str(config)]) == 0
        assert capsys.readouterr().out == f"day: rows=69 dropped=0 removed=0 -> {out / 'day.csv'}\n"
        assert (out / "day.csv").read_bytes() == path.read_bytes()
        assert main(["compare", "--config", str(config)]) == 0
        assert (out / "compare.csv").read_text() == DAILY_COMPARE


# ----------------------------------------------------------------------
# closed stdout and stderr
# ----------------------------------------------------------------------

class _ClosedStream(io.StringIO):
    """A stream whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def _batch_argv(tmp_path, command):
    # Two good instruments around an undecodable file, so the run exits 2.
    good = [write_synth_fixture(tmp_path, name=name, seed=seed)[0]
            for name, seed in (("a", 3), ("b", 5))]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"timestamp,close\n\xff\xfe\x00broken\n")
    config = write_config(
        tmp_path, [("a", good[0], "5min"), ("bad", bad, "5min"), ("b", good[1], "5min")],
        anchor_date="2025-01-15", window_days=5, sequence=SEQ_SHORT,
    )
    return [command, "--config", str(config), "--out"]


@pytest.mark.parametrize("command", ["ingest", "compare", "spectrum", "synth"])
def test_closed_stdout_fails_no_instrument(tmp_path, capsys, monkeypatch, command):
    # Each run closes one stream; the other takes what the open run wrote.
    if command == "synth":
        argv = ["synth", "--seed", "1", "--days", "3", "--bars-per-day", "12", "--out"]
    else:
        argv = _batch_argv(tmp_path, command)
    assert main([*argv, str(tmp_path / "open")]) == (0 if command == "synth" else 2)
    open_run = capsys.readouterr()
    assert open_run.out or command == "compare"  # compare prints no summary
    assert open_run.err or command == "synth"  # synth reports no failure
    for stream in ("stdout", "stderr"):
        with monkeypatch.context() as m:
            m.setattr(sys, stream, _ClosedStream())
            code = main([*argv, str(tmp_path / stream)])
            if getattr(open_run, stream[3:]):  # the first line switched it to devnull
                assert getattr(sys, stream).name == os.devnull
                getattr(sys, stream).close()
        assert code == (0 if command == "synth" else 2)
        out = open_run.out.replace(str(tmp_path / "open"), str(tmp_path / stream))
        assert capsys.readouterr() == (("", open_run.err) if stream == "stdout" else (out, ""))
    written = {
        run: {p.name: p.read_bytes() for p in sorted((tmp_path / run).iterdir())}
        for run in ("open", "stdout", "stderr")
    }
    assert written["stdout"] == written["open"] == written["stderr"] and written["open"]


def test_closed_stderr_pipe_fails_no_instrument(tmp_path):
    # With stderr gone, the bad instrument's error line is dropped: the run
    # still exits 2 with every good instrument's files and summary lines.
    argv = _batch_argv(tmp_path, "spectrum")
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "entroscope.cli", *argv, str(tmp_path / "out")],
            stdout=subprocess.PIPE, stderr=write_end, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert [line.split(":")[0] for line in proc.stdout.decode().splitlines()] == ["a", "b"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        f"{i}_{name}.csv" for i in ("a", "b") for name in ("events", "monthly", "spectrum")
    ]


@pytest.mark.parametrize("command, buffered", [
    ("ingest", False), ("synth", False), ("ingest", True), ("synth", True),
], ids=["ingest", "synth", "ingest-buffered", "synth-buffered"])
def test_closed_stdout_pipe_ends_cleanly(tmp_path, command, buffered):
    # A buffered stdout is flushed once more when the interpreter exits; a
    # line still held for the broken pipe would then end the run with exit
    # 120 and "Exception ignored ... BrokenPipeError" on stderr.
    if command == "synth":
        argv = ["synth", "--seed", "1", "--days", "3", "--bars-per-day", "12", "--out"]
        names = ["synth.csv", "synth_injections.csv"]
    else:
        paths = [write_synth_fixture(tmp_path, name=f"i{k}", seed=k)[0] for k in range(3)]
        config = write_config(tmp_path, [(f"i{k}", p, "5min") for k, p in enumerate(paths)])
        argv = ["ingest", "--config", str(config), "--out"]
        names = ["i0.csv", "i1.csv", "i2.csv"]
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    if buffered:
        del env["PYTHONUNBUFFERED"]
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "entroscope.cli", *argv, str(tmp_path / "out")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 0, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == names


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


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over an earlier run"])
def test_synth_failing_log_write_leaves_neither_file(tmp_path, capsys, monkeypatch, earlier):
    # The price file is renamed into place before its log fails to be; an
    # earlier run's log must not stay behind without its price file.
    out = tmp_path / "out"
    argv = ["synth", "--days", "3", "--bars-per-day", "4", "--id", "demo", "--out", str(out)]
    if earlier:
        assert main([*argv, "--seed", "2", "--shock", "1:5:single_bar"]) == 0
        capsys.readouterr()
    replace = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == "demo_injections.csv":
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main([*argv, "--seed", "1"]) == 2
    assert capsys.readouterr() == ("", "error: disk full\n")
    assert list(out.iterdir()) == []


def test_synth_rejects_malformed_shock(tmp_path):
    assert main(["synth", "--seed", "1", "--shock", "oops", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("flags, message", [
    (["--bars-per-day", "200"], "bars_per_day must be at most 174, got 200"),
    (["--bars-per-day", "300"], "bars_per_day must be at most 174, got 300"),
    (["--sigma", "nan"], "volatility must be finite, got nan"),
    (["--mu", "inf"], "drift must be finite, got inf"),
    (["--shock", "1:nan:single_bar"], "shock magnitude_sigma must be finite, got nan"),
    # More bars than numpy can size float64 increments for: numpy's own
    # text would name no field.
    (["--days", str(10**18)], f"n_days * bars_per_day must be at most 2**60, got {78 * 10**18}"),
    (["--days", str(2**60 + 1), "--bars-per-day", "1"],
     f"n_days * bars_per_day must be at most 2**60, got {2**60 + 1}"),
    (["--days", str(2**62), "--bars-per-day", "2"],
     f"n_days * bars_per_day must be at most 2**60, got {2**63}"),
    # Day 0's one bar has no return: no shape can land there.
    (["--bars-per-day", "1", "--shock", "0:5:dispersed_day"],
     "shock day 0 of a daily series has no return to shock"),
    (["--days", "1", "--bars-per-day", "1", "--shock", "0:5:single_bar"],
     "shock day 0 of a daily series has no return to shock"),
    # A path that decays below 5e-7 (the message names its lowest close):
    # 0.000000 would be written, which ingest drops as non-positive.
    (["--days", "30", "--bars-per-day", "1", "--mu", "-1", "--sigma", "0.01"],
     "close 2.48831e-11 at 2025-01-31T00:00:00 prints as zero"),
])
def test_synth_invalid_spec_exits_2_with_one_line(tmp_path, capsys, flags, message):
    out = tmp_path / "fixtures"
    assert main(["synth", "--seed", "1", "--days", "3", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_synth_path_past_9999_exits_2_before_any_output(tmp_path, capsys):
    # Daily bars from 2025-01-02 whose last lies on 10000-01-01: ingest
    # would drop that row as unparseable, so nothing is written.
    out = tmp_path / "fixtures"
    argv = ["synth", "--seed", "1", "--days", "2912808", "--bars-per-day", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: timestamp 10000-01-01T00:00:00 lies outside years 0000-9999\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["", ".", "..", "../esc", "a/b", "a\\b", "a\0b", "a\nb", "a\x7f",
                                  "SPX,1"])
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
    assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "first")]) == 0
    assert main(["ingest", "--config", str(config)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "first", "out", "synth_raw.csv"]
    assert (tmp_path / "first" / "synth.csv").read_bytes() == (
        tmp_path / "out" / "synth.csv").read_bytes()
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
    "line end": (["a\nb"], 0, "expected a plain file name, got 'a\\nb'"),
    "empty": ([""], 0, "expected a plain file name, got ''"),
    "dot": (["."], 0, "expected a plain file name, got '.'"),
    "dot dot": ([".."], 0, "expected a plain file name, got '..'"),
    # A compare.csv field: a comma adds a column, a quote swallows later rows.
    "comma": (["SPX,1"], 0, "expected a plain file name, got 'SPX,1'"),
    "quote": (["a", '"SPX'], 1, "expected a plain file name, got '\"SPX'"),
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


# ----------------------------------------------------------------------
# the failure contract: exit 0, 2 or 3 and one line per message
# ----------------------------------------------------------------------

def _run(argv) -> int:
    """``main(argv)``, with an argparse exit taken as its code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_SHAPES = "single_bar, dispersed_day"

# Each case: the flags and the one stderr line.
FLAG_ERRORS = {
    "malformed --bins": (
        ["spectrum", "--config", "c.json", "--bins", "x"],
        "error: unrecognized arguments: --bins x",
    ),
    "missing --config": (
        ["spectrum"], "error: the following arguments are required: --config",
    ),
    "unknown command": (
        ["plot"],
        "error: argument command: invalid choice: 'plot' "
        "(choose from 'ingest', 'compare', 'spectrum', 'pmf', 'synth')",
    ),
    "malformed --days": (
        ["synth", "--seed", "1", "--days", "x"],
        "error: argument --days: invalid int value: 'x'",
    ),
    "negative --seed": (
        ["synth", "--seed", "-1"], "error: --seed: expected a finite number >= 0, got -1",
    ),
    "--days past int64": (
        ["synth", "--seed", "1", "--days", str(10**30)],
        f"error: --days: expected an integer below 2**63, got {10**30}",
    ),
    "--bars-per-day past int64": (
        ["synth", "--seed", "1", "--bars-per-day", str(2**63)],
        f"error: --bars-per-day: expected an integer below 2**63, got {2**63}",
    ),
    "malformed --shock magnitude": (
        ["synth", "--seed", "1", "--shock", "1:x:dispersed_day"],
        f"error: --shock: expected DAY:MAGNITUDE:SHAPE with SHAPE one of {_SHAPES}, "
        "got '1:x:dispersed_day'",
    ),
    "unknown --shock shape": (
        ["synth", "--seed", "1", "--shock", "1:3:foo"],
        f"error: --shock: expected DAY:MAGNITUDE:SHAPE with SHAPE one of {_SHAPES}, "
        "got '1:3:foo'",
    ),
}


@pytest.mark.parametrize("case", list(FLAG_ERRORS))
def test_flag_error_is_one_line_naming_the_flag(tmp_path, capsys, monkeypatch, case):
    argv, line = FLAG_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    assert _run([*argv, "--out", "out"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")
    assert list(tmp_path.iterdir()) == []


def test_help_keeps_the_usage_block(capsys):
    assert _run(["spectrum", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: entroscope spectrum [-h] --config CONFIG")


_BIG = 10**30  # no float, int64 or array size holds it


def _options(valid: dict, wrong: dict):
    """A dict with some of the ``valid`` keys (each with a right value),
    then at most two keys of ``wrong`` set to a wrong value."""
    @st.composite
    def draw_options(draw):
        options = draw(st.fixed_dictionaries({}, optional=valid))
        count = draw(st.sampled_from([0, 0, 0, 0, 0, 1, 1, 2]))
        keys = st.lists(st.sampled_from(sorted(wrong)), min_size=count, max_size=count, unique=True)
        for key in draw(keys):
            options[key] = draw(wrong[key])
        return options
    return draw_options()


# Config keys, with right and wrong values.
_CONFIG = _options(
    {
        "anchor_date": st.sampled_from(["2025-01-05", "2025-01-08", "1999-06-01"]),
        "window_days": st.sampled_from([1, 2, 4]),
        "bins": st.sampled_from([None, 1, 2, 5]),
        "dedup_run_length": st.sampled_from([1, 6]),
        "return_kind": st.sampled_from(["log", "nominal"]),
        "aggregate_daily": st.booleans(),
        "range_policy": st.sampled_from(["fixed", "per-window"]),
        "sequence": st.fixed_dictionaries({}, optional={
            "base_length": st.sampled_from([2, 3, 5]),
            "increment": st.sampled_from([1, 2]),
            "steps": st.sampled_from([0, 1, 3]),
            "stride": st.sampled_from([1, 2]),
            "anchor_mode": st.sampled_from(["grow-right", "grow-left"]),
        }),
        "theta": st.sampled_from([0.5, 3.0]),
        "min_persistence": st.sampled_from([1, 2]),
        "baseline": st.sampled_from([1, 2, 8]),
        "out_dir": st.sampled_from(["out", "out/x"]),
    },
    {
        "anchor_date": st.sampled_from(["2024-13-01", "soon", 20240105]),
        "window_days": st.sampled_from([0, -2, _BIG, 2.5, "3"]),
        "bins": st.sampled_from([0, -1, _BIG, True, "4"]),
        "dt_col": st.sampled_from(["Date", "close", 3]),
        "close_col": st.sampled_from(["Close", "timestamp"]),
        "dedup_run_length": st.sampled_from([0, _BIG]),
        "return_kind": st.just("simple"),
        "aggregate_daily": st.just(1),
        "range_policy": st.just("other"),
        "sequence": st.sampled_from([
            None, [], "x", {"base_length": 1}, {"base_length": _BIG}, {"steps": -1},
            {"steps": _BIG}, {"stride": 0}, {"stride": _BIG}, {"increment": 0},
            {"anchor_mode": "sideways"}, {"span": 3},
        ]),
        "theta": st.sampled_from([0, -1.0, float("nan"), float("inf"), "3"]),
        "min_persistence": st.sampled_from([0, _BIG]),
        "baseline": st.sampled_from([0, _BIG]),
        "out_dir": st.just(5),
        "colour": st.just("blue"),
    },
)
_WRONG_ENTRIES = {
    "id": st.sampled_from(["", ".", "..", "../up", "a/b", "a\\b", "a\0b", "a\nb", 7]),
    "path": st.sampled_from(["in/missing.csv", "in", "", "in/new\nline.csv", 3]),
    "frequency": st.sampled_from(["weekly", None]),
    "label": st.just("x"),
}


@st.composite
def _config(draw, dirty_frequency):
    """The text of a run config and its plain ids: one to three instruments
    on the clean 5-minute file and the dirty file, a window geometry that
    fits the clean file, and options; sometimes with one wrong entry, a
    missing key, a repeated id or no instrument list. One id may hold an
    inner space."""
    paths = draw(st.lists(st.sampled_from(["in/clean.csv", "in/dirty.csv"]), min_size=1,
                          max_size=3))
    names = ["a", draw(st.sampled_from(["b", "b c"])), "c"]
    instruments = [
        {"id": name, "path": path, "frequency": "5min" if "clean" in path else dirty_frequency}
        for name, path in zip(names, paths)
    ]
    fault = draw(st.sampled_from([None] * 8 + ["entry", "missing", "repeat", "list"]))
    entry = draw(st.sampled_from(instruments))
    if fault == "entry":
        key = draw(st.sampled_from(sorted(_WRONG_ENTRIES)))
        entry[key] = draw(_WRONG_ENTRIES[key])
    elif fault == "missing":
        del entry[draw(st.sampled_from(["id", "path", "frequency"]))]
    elif fault == "repeat":
        entry["id"] = instruments[0]["id"]
    config = {
        "instruments": draw(st.sampled_from([[], {}])) if fault == "list" else instruments,
        "anchor_date": "2025-01-05",
        "sequence": {"base_length": 3, "increment": 1, "steps": 2, "stride": 1},
    }
    config.update(draw(_CONFIG))
    ids = [entry["id"] for entry in instruments if entry.get("id") in names]
    return json.dumps(config), ids


# The config is the one source of its keys' values: a flag of the same
# name as one is unknown.
_REMOVED_FLAGS = ("--dt-col", "--close-col", "--bins", "--theta")
_COMMON_FLAGS = _options(
    {"--out": st.sampled_from(["out", "out/flag"])},
    {"--dt-col": st.just("when"), "--close-col": st.just("Close"),
     "--bins": st.sampled_from(["5", "x"]), "--theta": st.sampled_from(["0.5", "nan"])},
)
_COMMAND_FLAGS = {
    "ingest": st.just({}),
    "compare": st.just({}),
    "spectrum": _options(
        {"--from-date": st.sampled_from(["2025-01-03", "1900-01-01"]),
         "--to-date": st.sampled_from(["2025-12-31", "2025-01-09"])},
        {"--from-date": st.sampled_from(["2024-02-30", "x", "2030-01-01"]),
         "--to-date": st.sampled_from(["", "1800-01-01"])},
    ),
    "pmf": _options(
        {"--day": st.sampled_from(["2025-01-05", "2025-01-08"]),
         "--span-days": st.sampled_from(["0", "2"]), "--instrument": st.sampled_from(["a"])},
        {"--day": st.sampled_from(["2026-01-07", "2024-02-30"]),
         "--span-days": st.sampled_from(["-1", "x", str(_BIG)]),
         "--instrument": st.just("zz")},
    ),
    "synth": _options(
        {"--seed": st.sampled_from(["3", "11"]), "--days": st.sampled_from(["2", "4"]),
         "--bars-per-day": st.sampled_from(["3", "10"]),
         "--shock": st.sampled_from(["1:3:dispersed_day", "0:5:single_bar"]),
         "--id": st.sampled_from(["s", "t"]), "--out": st.sampled_from(["out", "out/synth"])},
        {"--seed": st.sampled_from(["-1", "x", str(_BIG)]),
         "--days": st.sampled_from(["0", "x", str(_BIG)]),
         "--bars-per-day": st.sampled_from(["0", "200"]),
         "--mu": st.sampled_from(["nan", "x"]), "--sigma": st.sampled_from(["-1", "inf"]),
         "--shock": st.sampled_from(["9:3:single_bar", "1:x:single_bar", "1:3:foo", "1:3"]),
         "--id": st.sampled_from(["../s", "", "a\nb"])},
    ),
}


@st.composite
def _invocations(draw):
    """A command line, the files it reads and the ids that may start a
    message line: a config (JSON, not JSON or missing), a dirty CSV from
    the ingest property test and a clean synth file."""
    commands = ["ingest", "compare", "spectrum", "pmf", "synth"]
    command = draw(st.sampled_from(commands * 4 + ["plot"]))
    header, intraday = draw(st.sampled_from(_HEADERS)), draw(st.booleans())
    dirty = _dirty_csv(
        *header, intraday, draw(st.sampled_from([False] * 3 + [True])),
        draw(st.lists(_ROW, max_size=30)), draw(st.sampled_from(["\n", "", "\r\n"])),
    )
    if draw(st.sampled_from([False] * 9 + [True])):
        dirty, intraday = _RATIO_OVERFLOWS, True
    clean = serialize_csv(generate(SynthSpec(
        seed=draw(st.integers(0, 50)), n_days=draw(st.integers(2, 12)),
        bars_per_day=draw(st.sampled_from([1, 3, 8])),
    ))[0])
    config, ids = draw(st.sampled_from([True] * 12 + ["{", "[]", "null", None])), []
    if config is True:
        config, ids = draw(_config("5min" if intraday else "daily"))
    flags = {}
    if command in ("ingest", "compare", "spectrum", "pmf"):
        if draw(st.sampled_from([True] * 15 + [False])):
            flags["--config"] = "config.json"
        flags.update(draw(_COMMON_FLAGS))
    if command in _COMMAND_FLAGS:
        flags.update(draw(_COMMAND_FLAGS[command]))
    required = {"pmf": "--day", "synth": "--seed"}.get(command)
    if required and required not in flags and draw(st.sampled_from([True] * 7 + [False])):
        flags[required] = "2025-01-05" if command == "pmf" else "5"
    argv = [command, *(part for item in flags.items() for part in item)]
    argv += draw(st.sampled_from([[]] * 14 + [["--bogus"], ["extra"]]))
    return argv, config, {"in/dirty.csv": dirty, "in/clean.csv": clean}, ids


# The files of one unit, by what follows its id (or ``compare``) in their
# names: each unit is written all or none.
_UNITS = {
    "ingest": (".csv",),
    "compare": (".csv",),
    "spectrum": ("_spectrum.csv", "_monthly.csv", "_events.csv"),
    "pmf": ("_pmf_day.csv", "_pmf_span.csv"),
    "synth": (".csv", "_injections.csv"),
}
_CLEAN = serialize_csv(generate(SynthSpec(seed=1, n_days=4, bars_per_day=8))[0])
# Consecutive closes whose ratio overflows, then one whose ratio underflows
# to 0: their log returns are inf and -inf.
_RATIO_OVERFLOWS = "timestamp,close\n" + "".join(
    f"2025-01-0{day} {clock},{close}\n" for day in (2, 3, 4) for clock, close in [
        ("09:30:00", "100.0"), ("09:35:00", "1e-300"), ("09:40:00", "1e300"),
        ("09:45:00", "1e-300"), ("09:50:00", "100.0"),
    ]
)
_INPUTS = {"in/dirty.csv": "timestamp,close\n2025-01-02 09:30:00,100.0\n", "in/clean.csv": _CLEAN}
# The clean file, then the overflowing one: one "b: error:" line.
_OVERFLOWING = json.dumps({
    "instruments": [{"id": "a", "path": "in/clean.csv", "frequency": "5min"},
                    {"id": "b", "path": "in/dirty.csv", "frequency": "5min"}],
    "sequence": {"base_length": 3, "increment": 1, "steps": 2, "stride": 1},
})
# The spaced id on an intraday file read as daily: one "b c: error:" line.
_SPACED = json.dumps({
    "instruments": [{"id": "a", "path": "in/clean.csv", "frequency": "5min"},
                    {"id": "b c", "path": "in/dirty.csv", "frequency": "daily"}],
    "anchor_date": "2025-01-04",
    "sequence": {"base_length": 3, "increment": 1, "steps": 2, "stride": 1},
})


@settings(max_examples=150, deadline=None)
@given(invocation=_invocations(), fault=st.sampled_from([None] * 5 + [1, 2, 3, 4, 5]))
@example(invocation=(["synth", "--seed", "1", "--days", "3", "--bars-per-day", "4"],
                     None, _INPUTS, []), fault=2)
@example(invocation=(["ingest", "--config", "config.json"], _SPACED, _INPUTS, ["a", "b c"]),
         fault=None)
@example(invocation=(["ingest", "--config", "config.json", "--theta", "5"], _SPACED, _INPUTS,
                     ["a", "b c"]), fault=None)
@example(invocation=(["spectrum", "--config", "config.json"], _SPACED, _INPUTS, ["a", "b c"]),
         fault=2)
@example(invocation=(["compare", "--config", "config.json"], _SPACED, _INPUTS, ["a", "b c"]),
         fault=1)
@example(invocation=(["spectrum", "--config", "config.json"], _OVERFLOWING,
                     {**_INPUTS, "in/dirty.csv": _RATIO_OVERFLOWS}, ["a", "b"]), fault=None)
def test_every_failure_is_an_exit_code_and_one_line_messages(invocation, fault):
    """``fault`` makes the fault-th rename of an output file raise."""
    argv, config, inputs, ids = invocation
    renames, replace = [], os.replace

    def faulty_replace(src, dst):
        renames.append(dst)
        if len(renames) == fault:
            raise OSError("cannot rename a temp file")
        replace(src, dst)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in inputs.items():
            (root / name).parent.mkdir(exist_ok=True)
            (root / name).write_bytes(text.encode("utf-8"))
        if config is not None:
            (root / "config.json").write_text(config, encoding="utf-8")
        before = set(root.rglob("*"))
        err, here = io.StringIO(), os.getcwd()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught, \
                    mock.patch.object(os, "replace", faulty_replace):
                warnings.simplefilter("always")
                code = _run(argv)
        finally:
            os.chdir(here)
        made = [p.relative_to(root) for p in set(root.rglob("*")) - before if p.is_file()]
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    removed = set(_REMOVED_FLAGS) & set(argv)
    if removed:
        # Refused as it is parsed, unless argparse first refuses something
        # else: an unknown command, or a missing or malformed flag.
        assert (code, made, len(lines)) == (2, [], 1)
        if lines[0].startswith("error: unrecognized arguments: "):
            assert removed <= set(lines[0].split()), lines
        else:
            assert lines[0].startswith(("error: argument ", "error: the following")), lines
    # Each line starts with its kind, after the id of its instrument when it
    # has one; the ids are matched literally, so they may hold spaces.
    starts = tuple(f"{name}{kind}: " for name in ["", *(f"{id}: " for id in ids)]
                   for kind in ("error", "warning"))
    assert all(line.startswith(starts) and "Traceback" not in line for line in lines), lines
    assert [str(w.message) for w in caught] == []  # each would print its own lines
    assert not [p for p in made if p.suffix == ".tmp"]
    assert all(p.parts[0] == "out" for p in made), made
    if fault is not None and len(renames) >= fault:
        assert code != 0
    units = {}
    for p in made:
        suffix = max((s for s in _UNITS[argv[0]] if p.name.endswith(s)), key=len)
        units.setdefault((p.parent, p.name[: -len(suffix)]), set()).add(suffix)
    assert all(found == set(_UNITS[argv[0]]) for found in units.values()), units


def _with_closes(text: str, closes: dict[int, str]) -> str:
    """``text`` of a price CSV with the close of each data row i in
    ``closes`` replaced by its text."""
    lines = text.splitlines()
    for i, close in closes.items():
        lines[i + 1] = lines[i + 1].split(",")[0] + "," + close
    return "\n".join(lines) + "\n"


# Each case: the bad file's closes by row, the return kind, and the one
# stderr line (a pattern). A clean file "ok" runs before it. Only compare
# reports a dispersion, so the variance case runs compare alone.
_OVERFLOWS = {
    "ratio overflows": ({40: "1e-300", 41: "1e300"}, "log", r"bad: error: returns must be finite"),
    "ratio underflows": ({40: "1e300", 41: "1e-300"}, "log", r"bad: error: returns must be finite"),
    "variance overflows": ({60: "1" + "0" * 200}, "nominal",
                           r"bad: error: std_dev is not finite: before=[0-9.e-]+, after=inf"),
}


def _run_quietly(argv, capsys):
    """The exit code and stderr lines of ``main(argv)``, which must raise
    no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _run(argv)
    assert [str(w.message) for w in caught] == []
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("case, command", [
    (case, command) for case, (_, kind, _) in _OVERFLOWS.items()
    for command in (["compare", "spectrum", "pmf"] if kind == "log" else ["compare"])
])
def test_overflowing_closes_end_in_one_error_line(case, command, tmp_path, monkeypatch, capsys):
    closes, kind, message = _OVERFLOWS[case]
    monkeypatch.chdir(tmp_path)
    clean = serialize_csv(generate(SynthSpec(seed=1, n_days=12, bars_per_day=8))[0])
    Path("ok.csv").write_text(clean, encoding="utf-8")
    Path("bad.csv").write_text(_with_closes(clean, closes), encoding="utf-8")
    Path("c.json").write_text(json.dumps({
        "instruments": [{"id": "ok", "path": "ok.csv", "frequency": "5min"},
                        {"id": "bad", "path": "bad.csv", "frequency": "5min"}],
        "out_dir": "out", "anchor_date": "2025-01-07", "window_days": 3, "return_kind": kind,
        "sequence": {"base_length": 3, "increment": 1, "steps": 2, "stride": 1},
    }), encoding="utf-8")
    extra = {"pmf": ["--day", "2025-01-08", "--span-days", "2", "--instrument", "bad"]}
    code, lines = _run_quietly([command, "--config", "c.json", *extra.get(command, [])], capsys)
    assert code == 2
    assert len(lines) == 1 and re.fullmatch(message, lines[0]), lines
    made = sorted(p.name for p in Path("out").glob("*")) if Path("out").exists() else []
    assert not [name for name in made if name.startswith("bad")]
    if command == "compare":
        rows = Path("out/compare.csv").read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["ok"]
        assert "inf" not in rows[1] and "nan" not in rows[1]
    elif command == "spectrum":
        assert made == ["ok_events.csv", "ok_monthly.csv", "ok_spectrum.csv"]
    else:
        assert made == []


@pytest.mark.parametrize("flags", [
    ["--sigma", "1000"], ["--mu", "1000"], ["--shock", "1:1e300:single_bar"],
    ["--sigma", "1e308"], ["--sigma", "1e200", "--shock", "1:1e200:dispersed_day"],
], ids=["sigma", "mu", "single-bar shock", "sigma near the float range", "dispersed shock"])
def test_overflowing_synth_path_ends_in_one_error_line(flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["synth", "--seed", "1", "--days", "3", "--bars-per-day", "4", "--out", "out", *flags]
    code, lines = _run_quietly(argv, capsys)
    assert (code, lines) == (2, ["error: closes must be finite and positive"])
    assert not Path("out").exists()
