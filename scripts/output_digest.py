#!/usr/bin/env python3
"""Digest every input and output of the benchmark workloads, to compare two
checkouts byte for byte.

Usage (from the root of a checkout):

    python3 scripts/output_digest.py SEED WORK_DIR

For each workload of ``benchmark/workloads.py`` (which this script only
reads), the inputs of ``SEED`` are built in ``WORK_DIR/<workload>``, which
is emptied first, and each of the workload's commands is run through the
CLI of this checkout in a subprocess. One line is printed per command:

    <workload> <command> exit=<code> stdout=<sha256> stderr=<sha256>

and then one line per file under ``WORK_DIR/<workload>``, inputs and
outputs, in path order:

    <workload>/<path> <sha256>

Configs and summary lines hold absolute paths, so two checkouts print the
same lines only when they are given the same ``WORK_DIR`` path.
"""
from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not argv[0].isdigit():
        print("usage: output_digest.py SEED WORK_DIR", file=sys.stderr)
        return 2
    seed, work_dir = int(argv[0]), Path(argv[1]).resolve()
    sys.dont_write_bytecode = True  # leave no bytecode in the checkout
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
    from workloads import WORKLOADS, build_inputs

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for name, workload in WORKLOADS.items():
        work = work_dir / name
        shutil.rmtree(work, ignore_errors=True)
        inputs = build_inputs(workload, seed, work)
        for command in workload.commands:
            proc = subprocess.run(
                [sys.executable, "-m", "entroscope.cli", command,
                 "--config", str(inputs.configs[command])],
                cwd=work, env=env, capture_output=True,
            )
            print(f"{name} {command} exit={proc.returncode} "
                  f"stdout={sha256(proc.stdout)} stderr={sha256(proc.stderr)}")
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            print(f"{name}/{path.relative_to(work).as_posix()} {sha256(path.read_bytes())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
