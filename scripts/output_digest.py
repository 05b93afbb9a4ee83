#!/usr/bin/env python3
"""Digest every input and output of the benchmark workloads, to compare two
checkouts byte for byte.

Usage (from the root of a checkout):

    python3 scripts/output_digest.py SEED WORK_DIR

For each workload of ``benchmark/workloads.py`` (which this script only
reads), the inputs of ``SEED`` are built in ``WORK_DIR/<workload>``, which
is emptied first, and each of the workload's commands is run through the
CLI of this checkout in a subprocess. So that all five commands run, more
follow: ``pmf`` on ``batch-day``'s report config into ``batch-day/pmf``,
and ``synth`` (seed ``SEED``, one shock) into ``WORK_DIR/synth/out``,
then a daily ``synth`` (one bar per day, one shock after day 0) into
``WORK_DIR/synth/daily``. Then the paths no workload runs are run on the
inputs already built (see ``VARIANTS``): grow-left sequences under both
range policies on ``per-window``, and on ``batch-day`` nominal returns,
daily aggregation and a ``--from-date``/``--to-date`` range. Each such run
reads the workload's report config with some keys changed, written to
``<workload>/<label>.json`` with its ``out_dir`` at ``<workload>/<label>``.
One line is printed per command, its label being ``<command>`` or
``<command>/<label>``:

    <workload> <label> exit=<code> stdout=<sha256> stderr=<sha256>

and then one line per file under ``WORK_DIR/<workload>``, inputs and
outputs, in path order:

    <workload>/<path> <sha256>

Configs and summary lines hold absolute paths, so every occurrence of the
``WORK_DIR`` path in stdout, stderr and file bytes is replaced by the token
``<WORK_DIR>`` before hashing: two checkouts print the same lines whatever
work directories they are given.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Per workload: (label, report config keys changed, the commands run with them).
VARIANTS = {
    "batch-day": [
        ("nominal", {"return_kind": "nominal"}, [["compare"], ["spectrum"]]),
        ("daily", {"aggregate_daily": True}, [["compare"], ["spectrum"]]),
        ("dates", {}, [["spectrum", "--from-date", "2025-03-01", "--to-date", "2025-08-31"]]),
    ],
    "per-window": [
        ("grow-left", {"sequence": {"anchor_mode": "grow-left"}}, [["spectrum"]]),
        ("grow-left-fixed", {"sequence": {"anchor_mode": "grow-left"}, "range_policy": "fixed"},
         [["spectrum"]]),
    ],
}


def sha256(data: bytes, work_dir: Path) -> str:
    """The digest of ``data`` with the ``work_dir`` path replaced by a token."""
    return hashlib.sha256(data.replace(os.fsencode(work_dir), b"<WORK_DIR>")).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not argv[0].isdigit():
        print("usage: output_digest.py SEED WORK_DIR", file=sys.stderr)
        return 2
    seed, work_dir = int(argv[0]), Path(argv[1]).resolve()
    sys.dont_write_bytecode = True  # leave no bytecode in the checkout
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
    from workloads import WORKLOADS, build_inputs

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for name in [*WORKLOADS, "synth"]:
        work = work_dir / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runs = []  # (label, arguments) pairs
        if name in WORKLOADS:
            configs = build_inputs(WORKLOADS[name], seed, work).configs
            runs = [(command, [command, "--config", str(configs[command])])
                    for command in WORKLOADS[name].commands]
        if name == "batch-day":
            runs.append(("pmf", ["pmf", "--config", str(configs["compare"]), "--day", "2025-05-15",
                                 "--span-days", "14", "--instrument", "ba03", "--out", "pmf"]))
        if name == "synth":
            runs.append(("synth", ["synth", "--seed", str(seed), "--days", "30",
                                   "--bars-per-day", "78", "--shock", "12:6:dispersed_day",
                                   "--id", "sy00", "--out", "out"]))
            runs.append(("synth/daily", ["synth", "--seed", str(seed), "--days", "30",
                                         "--bars-per-day", "1", "--shock", "12:6:single_bar",
                                         "--id", "sy01", "--out", "daily"]))
        for label, changes, commands in VARIANTS.get(name, []):
            config = json.loads(configs["spectrum"].read_text(encoding="utf-8"))
            config.update(changes, out_dir=str(work / label))
            (work / f"{label}.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
            runs += [(f"{command}/{label}", [command, "--config", f"{label}.json", *flags])
                     for command, *flags in commands]
        for label, run in runs:
            proc = subprocess.run(
                [sys.executable, "-m", "entroscope.cli", *run],
                cwd=work, env=env, capture_output=True,
            )
            print(f"{name} {label} exit={proc.returncode} "
                  f"stdout={sha256(proc.stdout, work_dir)} stderr={sha256(proc.stderr, work_dir)}")
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            digest = sha256(path.read_bytes(), work_dir)
            print(f"{name}/{path.relative_to(work).as_posix()} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
