"""Smoke tests of the runnable experiments in scripts/."""
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_calibrate_detector_default_row():
    rows = [line.split() for line in _run_script("calibrate_detector.py", "--seeds", "5").splitlines()]
    assert ["3.0", "2", "0", "100"] in rows


def test_code_lines_total_is_sum_of_modules():
    *modules, total = [line.split() for line in _run_script("code_lines.py").splitlines()]
    assert total[0] == "total"
    assert modules and all(name.endswith(".py") for name, _ in modules)
    assert int(total[1]) == sum(int(count) for _, count in modules) > 0


def test_output_digest_lines_every_command_and_file(tmp_path):
    work = tmp_path / "a"
    lines = _run_script("output_digest.py", "1", str(work)).splitlines()
    commands = [line.split() for line in lines if " exit=" in line]
    assert [c[:3] for c in commands] == [
        ["batch-day", "ingest", "exit=0"], ["batch-day", "compare", "exit=0"],
        ["batch-day", "spectrum", "exit=0"], ["batch-day", "pmf", "exit=0"],
        ["batch-day", "compare/nominal", "exit=0"], ["batch-day", "spectrum/nominal", "exit=0"],
        ["batch-day", "compare/daily", "exit=0"], ["batch-day", "spectrum/daily", "exit=0"],
        ["batch-day", "spectrum/dates", "exit=0"],
        ["onset-bar", "spectrum", "exit=0"], ["per-window", "spectrum", "exit=0"],
        ["per-window", "spectrum/grow-left", "exit=0"],
        ["per-window", "spectrum/grow-left-fixed", "exit=0"],
        ["synth", "synth", "exit=0"], ["synth", "synth/daily", "exit=0"],
    ]
    files = dict(line.split() for line in lines if " exit=" not in line)
    on_disk = {p.relative_to(work).as_posix() for p in work.rglob("*") if p.is_file()}
    assert set(files) == on_disk
    assert {"batch-day/raw/ba00.csv", "batch-day/report/compare.csv",
            "onset-bar/report/on00_events.csv", "per-window/report/pe03_monthly.csv",
            "batch-day/pmf/ba03_pmf_day.csv", "batch-day/pmf/ba03_pmf_span.csv",
            "synth/out/sy00.csv", "synth/out/sy00_injections.csv",
            "synth/daily/sy01.csv", "synth/daily/sy01_injections.csv"} <= on_disk
    # Each variant writes its own files, and none equals the workload's own.
    for variant, report in [
        ("batch-day/nominal/compare.csv", "batch-day/report/compare.csv"),
        ("batch-day/daily/compare.csv", "batch-day/report/compare.csv"),
        ("batch-day/nominal/ba00_spectrum.csv", "batch-day/report/ba00_spectrum.csv"),
        ("batch-day/daily/ba00_spectrum.csv", "batch-day/report/ba00_spectrum.csv"),
        ("batch-day/dates/ba00_spectrum.csv", "batch-day/report/ba00_spectrum.csv"),
        ("per-window/grow-left/pe00_spectrum.csv", "per-window/report/pe00_spectrum.csv"),
        ("per-window/grow-left-fixed/pe00_spectrum.csv",
         "per-window/grow-left/pe00_spectrum.csv"),
    ]:
        assert files[variant] != files[report], variant
    assert files["batch-day/report/compare.csv"] == hashlib.sha256(
        (work / "batch-day/report/compare.csv").read_bytes()
    ).hexdigest()
    # Configs name the work directory; their digests do not depend on it.
    config = (work / "batch-day/ingest.json").read_bytes()
    assert str(work).encode() in config
    assert files["batch-day/ingest.json"] == hashlib.sha256(
        config.replace(str(work).encode(), b"<WORK_DIR>")
    ).hexdigest()
    assert _run_script("output_digest.py", "1", str(tmp_path / "other")).splitlines() == lines


def test_bench_ab_runs_both_sides_in_turn(tmp_path):
    # Both sides are one copy of this checkout's sources and benchmark, so
    # the runs write their records there and not here: two pairs of short
    # runs of each of two workloads, all of per-window first; in each, the
    # parent runs first in pair 0 and the change first in pair 1.
    for name in ("src", "benchmark"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    lines = _run_script(
        "bench_ab.py", str(tmp_path), str(tmp_path), "--workload", "per-window", "onset-bar",
        "--seed", "1", "--pairs", "2", "--seconds", "0.05",
    ).splitlines()
    assert len(lines) == 2 * 16
    assert [lines[0], lines[16]] == ["workload per-window", "workload onset-bar"]
    for section in (lines[1:16], lines[17:]):
        _check_bench_ab_section(section)


def _check_bench_ab_section(lines):
    """The lines ``bench_ab.py`` prints for one workload of two pairs,
    after its ``workload`` line."""
    runs = [line.split() for line in lines[:4]]
    assert [run[:4] for run in runs] == [
        ["pair", "0", "parent", "correct=true"], ["pair", "0", "change", "correct=true"],
        ["pair", "1", "change", "correct=true"], ["pair", "1", "parent", "correct=true"],
    ]
    names = ["pipeline_s", "peak_rss_mb", "setup_s"]
    for run in runs:
        assert [field.split("=")[0] for field in run[4:]] == names
    assert [line.split()[:2] for line in lines[4:9]] == [
        ["median", "parent"], ["median", "change"], ["quartiles", "parent"],
        ["quartiles", "change"], ["ratio", "change/parent"],
    ]
    for line in lines[4:9]:
        assert [field.split("=")[0] for field in line.split()[2:]] == names
    q1, q3 = map(float, lines[6].split()[2].split("=")[1].split(".."))
    assert q1 <= q3
    # One gain line per end-to-end metric of BENCHMARK.json, in its order,
    # then one regression line per metric.
    gains = [line.split() for line in lines[9:12]]
    assert [gain[:2] for gain in gains] == [["gain", name] for name in names]
    for gain in gains:
        fields = dict(field.split("=") for field in gain[2:])
        assert list(fields) == ["wins", "nine_tenths", "gap", "parent_iqr", "gap_exceeds_iqr"]
        wins, pairs = map(int, fields["wins"].split("/"))
        assert pairs == 2 and 0 <= wins <= 2
        assert fields["nine_tenths"] == str(wins == 2).lower()
        gap, iqr = float(fields["gap"]), float(fields["parent_iqr"])
        if gap != iqr:  # printed to 6 digits, equal ones may differ unprinted
            assert fields["gap_exceeds_iqr"] == str(gap > iqr).lower()
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
        "end_to_end"]}
    regressions = [line.split() for line in lines[12:]]
    assert [regression[:2] for regression in regressions] == [["regression", n] for n in names]
    for regression in regressions:
        fields = dict(field.split("=") for field in regression[2:])
        assert list(fields) == ["worse_by", "bound", "spread", "verdict"]
        worse_by, bound, spread = (float(fields[k]) for k in ("worse_by", "bound", "spread"))
        assert bound == bounds[regression[1]] and spread >= 0
        assert fields["verdict"] in ("ok", "worse", "unresolved")
        if worse_by > bound:
            assert fields["verdict"] == "worse"
        elif worse_by < bound and spread < bound:  # printed to 4 digits: equal ones may differ
            assert fields["verdict"] == "ok"


@pytest.mark.parametrize("parent, change, verdict", [
    ([1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2], "ok"),
    ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], "worse"),
    ([1.0, 2.0, 1.0, 2.0], [1.0, 2.0, 1.0, 2.0], "unresolved"),  # spread 2/3 > bound 0.25
    ([1.0, 2.0, 1.0, 2.0], [0.5, 0.9, 0.5, 0.9], "ok"),  # as wide, but every change run beats
    ([1.0, 2.0, 1.0, 2.0], [1.0, 3.0, 1.0, 3.0], "worse"),  # median 2 against 1.5
])
def test_bench_ab_regression_verdicts(tmp_path, monkeypatch, capsys, parent, change, verdict):
    # pipeline_s (lower is better, bound 0.25) of four pairs of given runs
    # per workload, judged under the parent checkout's BENCHMARK.json.
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
    bench_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ab)
    (tmp_path / "parent").mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    # Workload "w" gets the given runs, then workload "v" equal runs on
    # both sides, which read ok.
    values = {("w", "parent"): iter(parent), ("w", "change"): iter(change),
              ("v", "parent"): iter([1.0] * 4), ("v", "change"): iter([1.0] * 4)}
    monkeypatch.setattr(bench_ab, "run_once", lambda checkout, workload, args: {
        "correct": True,
        "metrics": {"pipeline_s": {"value": next(values[workload, checkout.name])}}})
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "v",
            "--seed", "1", "--pairs", "4", "--seconds", "1"]
    assert bench_ab.main(argv) == 0
    kept = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith(("workload", "regression"))]
    assert len(kept) == 4 and kept[0] == "workload w" and kept[2] == "workload v"
    assert kept[1].startswith("regression pipeline_s ") and kept[1].endswith(f" verdict={verdict}")
    assert kept[3].startswith("regression pipeline_s ") and kept[3].endswith(" verdict=ok")
