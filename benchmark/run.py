#!/usr/bin/env python3
"""entroscope benchmark: one workload in one process and one thread.

Usage (from the root of a checkout):

    python3 benchmark/run.py --workload batch-day --seed 1 --seconds 30 --trace 0

Set-up imports entroscope, then generates and writes the workload's inputs
from the seed (three times; the median is reported). A pass runs the
workload's CLI commands in this process through ``entroscope.cli.main``,
with the CLI's own default thread pool. Passes repeat until ``--seconds``
of pass time is spent; every pass is checked outside the timed region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with traced ones, for which the layer wrappers are swapped
in, and reports the per-layer metrics.

The report goes to stdout and its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the
run (environment, every metric, per-pass times, check messages) and, for a
traced run, its spans are written under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("batch-day", "onset-bar", "per-window")
SETUP_REPEATS = 3
MIN_PASSES = 3  # per --trace 0 run
MIN_TRACED_PASSES = 2  # each of untraced and traced, per --trace 1 run
DEADLINE_S = 120.0  # past the minimum, no pass starts after this much run time


@dataclass
class Pass:
    runs: list  # checks.CommandRun per command
    failed: dict  # (command, instrument) -> reason
    bytes_written: int
    spans: list | None = None

    @property
    def wall_s(self) -> float:
        return sum(run.wall_s for run in self.runs)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="pass time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / name).read_text().strip() for name in ("level", "type", "size")
            )
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entroscope" / "__init__.py").is_file():
        print(f"error: entroscope sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # keep the checkout clean and import cost the same every run
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    run_start = time.perf_counter()
    import entroscope

    import_s = time.perf_counter() - run_start
    if Path(entroscope.__file__).resolve().parent != (SRC / "entroscope").resolve():
        print(f"error: imported entroscope from {entroscope.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        return run(args, import_s, run_start, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, import_s: float, run_start: float, work: Path) -> int:
    import numpy

    from entroscope import cli

    import checks
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = environment(numpy.__version__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    builds = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        inputs = workloads.build_inputs(workload, args.seed, work)
        builds.append((time.perf_counter() - start, inputs))
    setup_s = import_s + statistics.median(seconds for seconds, _ in builds)
    messages = []
    if len({built.digest for _, built in builds}) != 1:
        messages.append("set-up: input files differ between builds from one seed")
    checker = checks.Checker(workload, inputs, args.seed)

    def run_pass(tracer=None) -> list:
        for directory in inputs.out_dirs:
            shutil.rmtree(directory, ignore_errors=True)
        runs = []
        for command in workload.commands:
            argv = [command, "--config", str(inputs.configs[command])]
            out, err = io.StringIO(), io.StringIO()
            scope = tracer.command(command) if tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                with scope:
                    try:
                        rc = cli.main(argv)
                    except (Exception, SystemExit):
                        traceback.print_exc()
                        rc = None
                wall = time.perf_counter() - start
            runs.append(checks.CommandRun(command, rc, out.getvalue(), err.getvalue(), wall))
        return runs

    def measure(budget: float, minimum: int, tracer=None) -> list[Pass]:
        """Passes until ``budget`` seconds of pass time and ``minimum`` passes.

        With a tracer, passes alternate untraced and traced, so drift over the
        run affects both alike; the wrappers are installed only while a traced
        pass runs.
        """
        passes: list[Pass] = []
        timed = 0.0
        while len(passes) < minimum or timed < budget:
            if len(passes) >= minimum and time.perf_counter() - run_start > DEADLINE_S:
                break
            active = tracer if tracer is not None and len(passes) % 2 else None
            mark = len(tracer.spans) if active else 0
            if active:
                active.install()
            try:
                runs = run_pass(active)
            finally:
                if active:
                    active.uninstall()
            failed = checker.check_pass(runs)
            spans = active.spans[mark:] if active else None
            if spans is not None:
                checker.check_planted_counts(
                    tracing.op_counts(spans, "ingest.parse_csv", "dropped"),
                    tracing.op_counts(spans, "ingest.dedup_closed_market", "removed"),
                    failed,
                )
            written = sum(p.stat().st_size for p in checker.output_files().values())
            passes.append(Pass(runs, failed, written, spans))
            timed += passes[-1].wall_s
        return passes

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        passes = measure(args.seconds, 2 * MIN_TRACED_PASSES, tracer)
        plain, traced = passes[0::2], passes[1::2]
    else:
        passes = measure(args.seconds, MIN_PASSES)

    attempted = len(passes) * len(checker.operations())
    failed = sum(len(p.failed) for p in passes)
    messages += checker.messages
    walls = [p.wall_s for p in passes]
    command_s = {
        command: [run.wall_s for p in passes for run in p.runs if run.command == command]
        for command in workload.commands
    }

    # (name, value, unit, note) of every metric; the JSON line carries those
    # that BENCHMARK.json declares for this kind of run.
    report = []
    if args.trace:
        per_pass = [tracing.pass_metrics(p.spans) for p in traced]
        layer = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        layer["synth.generate.s"] = statistics.median(built.generate_s for _, built in builds)
        layer["synth.bars"] = inputs.bars
        layer["cli.bytes_written"] = statistics.median(p.bytes_written for p in traced)
        layer["trace.overhead"] = (
            statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in plain)
        )
        for name, value in layer.items():
            report.append((name, value, _layer_unit(name), ""))
        unfired = [name for name, value in layer.items() if name.endswith(".calls") and not value]
        report.append(("trace.unfired", ", ".join(unfired) or "none", "",
                       "wrapped names with calls=0"))
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", run_start)
    else:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        pipeline_s = statistics.median(walls)
        report.append(("setup_s", setup_s, "s",
                       f"import {import_s:.3f} s + median of {SETUP_REPEATS} input builds"))
        report.append(("pipeline_s", pipeline_s, "s",
                       f"median of {len(walls)} passes, quartiles {q1:.3f}..{q3:.3f}"))
        for command in ("ingest", "compare", "spectrum"):
            if command in command_s:
                report.append((f"{command}_s", statistics.median(command_s[command]), "s",
                               f"median of {len(command_s[command])} passes"))
        report.append(("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                       "MiB", "ru_maxrss of this process"))
        report.append(("failed_frac", failed / attempted, "ratio",
                       f"{failed} of {attempted} (command, instrument) operations"))
        if checker.shocks:
            report.append(("shock_recall", checker.shocks_covered / checker.shocks, "ratio",
                           f"{checker.shocks_covered} of {checker.shocks} injected shocks covered"))
        else:
            report.append(("shock_recall", "n/a", "ratio", "no shocks injected"))
        report.append(("false_events", checker.false_events, "count",
                       "events whose onset sequence covers no injected shock"))

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(checker.operations())} operations each")
    for name, value, unit, note in report:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:40s} {shown:>14s} {unit:6s} {note}")
    for message in messages:
        print(f"check: {message}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "report": {name: {"value": value, "unit": unit} for name, value, unit, _ in report},
        "pass_walls_s": walls,
        "command_walls_s": command_s,
        "setup_builds_s": [seconds for seconds, _ in builds],
        "planted": {inst.instrument_id: vars(inst.planted) for inst in inputs.instruments},
        "messages": messages,
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    result = {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: record["report"][name] for name in declared},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(".bytes") or name == "cli.bytes_written":
        return "B"
    if name.endswith(("concurrency", "share", "overhead")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
