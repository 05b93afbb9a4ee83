#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark on two checkouts.

Usage:

    python3 scripts/bench_ab.py PARENT CHANGE --workload W --seed S --pairs N --seconds T

Each pair runs ``benchmark/run.py --workload W --seed S --seconds T`` of
the PARENT checkout and then of the CHANGE checkout, each in a subprocess
whose working directory is that checkout, so both sides share the host's
load as evenly as alternation allows. This script only runs the
benchmarks; it changes no file of either checkout beyond what
``benchmark/run.py`` itself writes.

One line is printed per run: the pair, the side, ``correct`` and the
end-to-end metrics of the run's last stdout line. Then each side's
medians, and the change/parent ratio of each median. The exit code is 1
when any run is not correct or ends without its JSON line, else 0.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    return args


def run_once(checkout: Path, args) -> dict | None:
    """The JSON result of one benchmark run in ``checkout``, or None when
    the run prints none."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{checkout}: no result (exit {proc.returncode}): {proc.stderr.strip()}",
              file=sys.stderr)
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    values: dict[str, dict[str, list[float]]] = {side: {} for side in SIDES}
    all_correct = True
    for pair in range(args.pairs):
        for side in SIDES:
            result = run_once(checkouts[side], args)
            correct = result is not None and result["correct"] is True
            all_correct &= correct
            metrics = result["metrics"] if result is not None else {}
            shown = " ".join(f"{name}={m['value']:.6g}" for name, m in metrics.items())
            print(f"pair {pair} {side} correct={str(correct).lower()} {shown}".rstrip(),
                  flush=True)
            for name, m in metrics.items():
                values[side].setdefault(name, []).append(m["value"])
    medians = {
        side: {name: statistics.median(v) for name, v in values[side].items()} for side in SIDES
    }
    for side in SIDES:
        shown = " ".join(f"{name}={m:.6g}" for name, m in medians[side].items())
        print(f"median {side} {shown}".rstrip())
    ratios = " ".join(
        f"{name}={medians['change'][name] / m:.4f}"
        for name, m in medians["parent"].items() if name in medians["change"] and m
    )
    print(f"ratio change/parent {ratios}".rstrip())
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
