"""Smoke tests of the runnable experiments in scripts/."""
import os
import subprocess
import sys
from pathlib import Path

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


def test_shock_demo_detects_the_shock_only():
    quiet, shocked = _run_script("shock_demo.py").split("--- with dispersed-day shock")
    assert "  detected: none" in quiet.splitlines()
    assert "detected: onset" not in quiet
    assert sum(line.strip().startswith("detected: onset") for line in shocked.splitlines()) == 1


def test_calibrate_detector_default_row():
    rows = [line.split() for line in _run_script("calibrate_detector.py", "--seeds", "5").splitlines()]
    assert ["3.0", "2", "0", "100"] in rows


def test_code_lines_total_is_sum_of_modules():
    *modules, total = [line.split() for line in _run_script("code_lines.py").splitlines()]
    assert total[0] == "total"
    assert modules and all(name.endswith(".py") for name, _ in modules)
    assert int(total[1]) == sum(int(count) for _, count in modules) > 0
