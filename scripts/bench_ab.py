#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark on two checkouts.

Usage:

    python3 scripts/bench_ab.py PARENT CHANGE --workload W [W ...] --seed S --pairs N --seconds T

The workloads are run in turn, all pairs of one before the next, and each
prints the lines below after a ``workload W`` line. Each pair runs
``benchmark/run.py --workload W --seed S --seconds T`` of both checkouts,
each in a subprocess whose working directory is that checkout. The side
that runs first alternates, the PARENT on even pairs and the CHANGE on
odd ones, so both sides share the host's load as evenly as alternation
allows. This script only runs the benchmarks; it changes no file of
either checkout beyond what ``benchmark/run.py`` itself writes.

One line is printed per run: the pair, the side, ``correct`` and the
end-to-end metrics of the run's last stdout line. Then each side's
medians and quartiles (``Q1..Q3``), and the change/parent ratio of each
median. Last, for each end-to-end metric of the PARENT checkout's
``BENCHMARK.json`` (read only for its ``better`` direction), one ``gain``
line applies the rule for claiming a gain: the pairs the change won (ties
count for neither), whether that is at least nine tenths of the pairs,
the gap between the medians in the better direction, the parent's spread
(the distance between its quartiles) and whether the gap exceeds it.
Then, for each such metric, one ``regression`` line applies the rule for
claiming no regression: ``worse_by``, how far the change's median lies
from the parent's in the worse direction, and ``spread``, the parent's
quartile distance, each as a share of the parent's median, beside the
metric's ``bound``. The verdict is ``worse`` when ``worse_by`` exceeds the
bound, else ``unresolved`` when ``spread`` exceeds it and some change run
does not beat every parent run, else ``ok``.
The exit code is 1 when any run of any workload is not correct or ends
without its JSON line, else 0.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    return args


def run_once(checkout: Path, workload: str, args) -> dict | None:
    """The JSON result of one benchmark run of ``workload`` in
    ``checkout``, or None when the run prints none."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
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


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of ``values``,
    interpolated linearly between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(workload: str, checkouts: dict[str, Path], benchmark: dict, args) -> bool:
    """Run and print the pairs of one workload, then its medians, quartiles,
    ratios, ``gain`` and ``regression`` lines; True when every run is
    correct."""
    print(f"workload {workload}", flush=True)
    runs: dict[str, list[dict[str, float]]] = {side: [] for side in SIDES}  # one per pair
    all_correct = True
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            result = run_once(checkouts[side], workload, args)
            correct = result is not None and result["correct"] is True
            all_correct &= correct
            metrics = result["metrics"] if result is not None else {}
            shown = " ".join(f"{name}={m['value']:.6g}" for name, m in metrics.items())
            print(f"pair {pair} {side} correct={str(correct).lower()} {shown}".rstrip(),
                  flush=True)
            runs[side].append({name: m["value"] for name, m in metrics.items()})
    spread = {side: {} for side in SIDES}
    for side in SIDES:
        for name in dict.fromkeys(name for run in runs[side] for name in run):
            spread[side][name] = quartiles([run[name] for run in runs[side] if name in run])
    for side in SIDES:
        shown = " ".join(f"{name}={q[1]:.6g}" for name, q in spread[side].items())
        print(f"median {side} {shown}".rstrip())
    for side in SIDES:
        shown = " ".join(f"{name}={q[0]:.6g}..{q[2]:.6g}" for name, q in spread[side].items())
        print(f"quartiles {side} {shown}".rstrip())
    parent, change = spread["parent"], spread["change"]
    ratios = " ".join(
        f"{name}={change[name][1] / q[1]:.4f}"
        for name, q in parent.items() if name in change and q[1]
    )
    print(f"ratio change/parent {ratios}".rstrip())
    regressions = []  # printed after every gain line
    for metric in benchmark["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        if name not in parent or name not in change:
            continue
        sign = 1 if metric["better"] == "higher" else -1  # sign * (change - parent) > 0: better
        wins = sum(
            sign * (c[name] - p[name]) > 0
            for p, c in zip(runs["parent"], runs["change"]) if name in p and name in c
        )
        gap = sign * (change[name][1] - parent[name][1])
        iqr = parent[name][2] - parent[name][0]
        print(f"gain {name} wins={wins}/{args.pairs} "
              f"nine_tenths={str(wins >= 0.9 * args.pairs).lower()} "
              f"gap={gap:.6g} parent_iqr={iqr:.6g} gap_exceeds_iqr={str(gap > iqr).lower()}")
        base = parent[name][1] or math.nan  # no share of a zero median
        worse_by, spread_share = -gap / base, iqr / base
        beats = all(
            sign * (c[name] - p[name]) > 0
            for p in runs["parent"] if name in p for c in runs["change"] if name in c
        )
        verdict = ("worse" if worse_by > bound else
                   "ok" if spread_share <= bound or beats else "unresolved")
        regressions.append(f"regression {name} worse_by={worse_by:.4g} bound={bound:g} "
                           f"spread={spread_share:.4g} verdict={verdict}")
    for line in regressions:
        print(line)
    return all_correct


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    benchmark = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    correct = [compare(workload, checkouts, benchmark, args) for workload in args.workload]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
