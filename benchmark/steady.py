#!/usr/bin/env python3
"""Steadiness mode: each metric's spread across repeated benchmark runs.

Usage (from the root of a checkout):

    python3 benchmark/steady.py --workload batch-day --seeds 1-10 [--trace 0] [--sets 2]

Runs ``benchmark/run.py`` once per seed, one process after another, with
``run_seconds`` from BENCHMARK.json unless ``--seconds`` is given. For every
metric it prints the median and quartiles of the per-run values
(``statistics.quantiles(n=4)``) and the spread, the distance between the
quartiles as a share of the median. End-to-end metrics are set against
their bound: a spread within a third of the bound is steady. With
``--sets 2`` the seeds run twice and each set's median is compared with the
first set's, which must not be worse by more than the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(ROOT / "benchmark" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"seed {seed}: correct=false, {result['failed']} of {result['attempted']} failed\n"
              f"{done.stderr}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    medians: list[dict[str, float]] = []
    for index in range(args.sets):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = run_once(args.workload, seed, seconds, args.trace)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            shown = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                             if n in bounds or args.trace)
            print(f"set {index + 1} seed {seed}: {shown}", flush=True)
        print(f"\nset {index + 1}: {args.workload}, {len(seeds)} runs of {seconds:g} s")
        print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        set_medians = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "steady" if spread < bound / 3 else "WIDE"
            print(f"{name:42s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{bound if bound is not None else '':>6} {verdict}")
            set_medians[name] = median
        if medians:
            for name, median in set_medians.items():
                bound = bounds.get(name)
                if bound is not None:
                    drift = median / medians[0][name] - 1
                    print(f"  {name}: median vs set 1 {drift:+.3f} "
                          f"({'ok' if drift <= bound else 'WORSE THAN BOUND'})")
        medians.append(set_medians)
    return 0


if __name__ == "__main__":
    sys.exit(main())
