"""Outside-in layer trace for the benchmark's traced passes.

``Tracer.install`` swaps timing wrappers in for public names where their
callers look them up: module globals of ``entroscope.cli``,
``entroscope.ingest`` and ``entroscope.cumulative``. ``uninstall`` puts the
originals back, so the untraced passes of a run execute no wrapper. Spans
(name, start, end, parent, enclosing command, thread, operation) are kept
in memory and written out when the run ends.

Under the CLI's thread pool spans of one command overlap, and each span's
duration includes time spent waiting for the interpreter lock. Busy time is
therefore reported next to concurrency (busy time of a command's direct
children over the wall time they cover) and never summed as wall time.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


def _first_arg_instrument(args, kwargs):
    return getattr(args[0], "instrument_id", None) if args else None


def _parse_instrument(args, kwargs):
    return kwargs.get("instrument_id", args[2] if len(args) > 2 else None)


def _parse_counts(result):
    series, diagnostics = result
    return {"rows": len(series) + diagnostics.dropped, "dropped": diagnostics.dropped}


def _spectra_counts(result):
    windows = len(result) * len(result[0].values) if result else 0
    return {"sequences": len(result), "windows": windows}


# (module, attribute, span name, instrument of the call, counts of the result).
# The span name's first component is the layer the time is attributed to.
WRAPPED = (
    ("ingest", "parse_csv", "ingest.parse_csv", _parse_instrument, _parse_counts),
    ("cli", "serialize_csv", "ingest.serialize_csv", _first_arg_instrument,
     lambda r: {"bytes": len(r)}),
    ("cli", "dedup_closed_market", "ingest.dedup_closed_market", _first_arg_instrument,
     lambda r: {"removed": r[1].removed}),
    ("cli", "log_returns", "returns.log_returns", _first_arg_instrument, None),
    ("cli", "bracket_windows", "returns.bracket_windows", _first_arg_instrument, None),
    ("cli", "compare_windows", "stats.compare_windows", _first_arg_instrument, None),
    ("cli", "spectra_for_series", "cumulative.spectra_for_series", _first_arg_instrument,
     _spectra_counts),
    ("cli", "detect_events", "cumulative.detect_events", None, lambda r: {"events": len(r)}),
    ("cumulative", "build_sequences", "cumulative.build_sequences", None, None),
    ("cumulative", "window_entropy", "entropy.window_entropy", None, None),
)
LAYERS = ("ingest", "returns", "stats", "entropy", "cumulative", "cli")
COMMANDS = ("ingest", "compare", "spectrum")


@dataclass(slots=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: int  # span id of the enclosing CLI command
    thread: int
    op: str | None  # "<command>/<instrument>", one per (command, instrument)
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._command: Span | None = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attribute, name, instrument_of, counts_of in WRAPPED:
            module = importlib.import_module(f"entroscope.{module_name}")
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, name, instrument_of, counts_of))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()

    @contextmanager
    def command(self, name: str):
        span_id = next(self._ids)
        span = Span(span_id, f"cli.{name}", time.perf_counter(), 0.0, None, span_id,
                    threading.get_ident(), name)
        self._command = span
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._command = None
            self.spans.append(span)

    def _wrap(self, fn, name, instrument_of, counts_of):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            command = self._command
            if command is None:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            if stack:
                parent, op = stack[-1]
            else:
                # A call with no instrument in its arguments (detect_events)
                # belongs to the last instrument this thread worked on.
                parent = command.span_id
                instrument = instrument_of(args, kwargs) if instrument_of else None
                if instrument is not None:
                    local.op = (command.span_id, f"{command.op}/{instrument}")
                last = getattr(local, "op", None)
                op = last[1] if last and last[0] == command.span_id else None
            span_id = next(self._ids)
            stack.append((span_id, op))
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = counts_of(result) if counts_of and result is not None else None
                self.spans.append(Span(span_id, name, start, end, parent, command.span_id,
                                       threading.get_ident(), op, counts))

        return traced

    def write(self, path: Path, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds from ``origin``."""
        with path.open("w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                record = asdict(span)
                record["start"] = span.start - origin
                record["end"] = span.end - origin
                out.write(json.dumps(record) + "\n")


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def op_counts(spans: list[Span], name: str, key: str) -> dict[str, int]:
    """Sum of one result count per operation, over the spans of one name."""
    sums: dict[str, int] = defaultdict(int)
    for span in spans:
        if span.name == name and span.counts is not None:
            sums[span.op] += span.counts[key]
    return sums


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    A span's exclusive time is its duration minus the part its children
    cover. A command's busy time is its self time (wall minus the union of
    its direct children) plus the exclusive time of every span inside it;
    each span's layer is attributed that share of the command's wall time.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    commands = {s.span_id: s for s in spans if s.parent is None}

    busy: dict[str, float] = defaultdict(float)
    exclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    attributed: dict[str, float] = defaultdict(float)
    command_busy: dict[int, float] = defaultdict(float)
    command_layer: dict[tuple[int, str], float] = defaultdict(float)
    for span in spans:
        if span.parent is None:
            continue
        own = span.duration - _union([(c.start, c.end) for c in children[span.span_id]])
        busy[span.name] += span.duration
        exclusive[span.name] += own
        calls[span.name] += 1
        for key, value in (span.counts or {}).items():
            counts[f"{span.name}.{key}"] += value
        command_busy[span.command] += own
        command_layer[(span.command, span.name)] += own

    metrics: dict[str, float] = {}
    for command in COMMANDS:
        metrics[f"cli.{command}.self_s"] = 0.0
        metrics[f"cli.{command}.concurrency"] = 0.0
    pipeline = 0.0
    spectrum_wall = 0.0
    spectrum_cumulative = 0.0
    for span_id, command in commands.items():
        wall = command.duration
        top = children[span_id]
        covered = _union([(c.start, c.end) for c in top])
        self_s = wall - covered
        metrics[f"cli.{command.op}.self_s"] += self_s
        if covered:
            metrics[f"cli.{command.op}.concurrency"] = sum(c.duration for c in top) / covered
        total = self_s + command_busy[span_id]
        attributed["cli"] += wall * self_s / total
        for (owner, name), own in command_layer.items():
            if owner == span_id:
                share = wall * own / total
                attributed[name] += share
                attributed[name.split(".")[0]] += share
                if command.op == "spectrum" and name.startswith("cumulative."):
                    spectrum_cumulative += share
        pipeline += wall
        if command.op == "spectrum":
            spectrum_wall += wall

    for _, _, name, _, _ in WRAPPED:
        metrics[f"{name}.s"] = busy[name]
        metrics[f"{name}.calls"] = calls[name]
    parse_s = busy["ingest.parse_csv"]
    spectra_s = busy["cumulative.spectra_for_series"]
    metrics.update({
        "ingest.parse_csv.rows_per_s": (
            counts["ingest.parse_csv.rows"] / parse_s if parse_s else 0.0
        ),
        "ingest.rows_dropped": counts["ingest.parse_csv.dropped"],
        "ingest.serialize_csv.bytes": counts["ingest.serialize_csv.bytes"],
        "ingest.dedup.removed": counts["ingest.dedup_closed_market.removed"],
        "cumulative.spectra_for_series.self_s": exclusive["cumulative.spectra_for_series"],
        "cumulative.sequences": counts["cumulative.spectra_for_series.sequences"],
        "cumulative.windows": counts["cumulative.spectra_for_series.windows"],
        "cumulative.windows_per_s": (
            counts["cumulative.spectra_for_series.windows"] / spectra_s if spectra_s else 0.0
        ),
        "cumulative.events": counts["cumulative.detect_events.events"],
    })
    for layer in LAYERS:
        metrics[f"attr.{layer}.s"] = attributed[layer]
    parse_serialize = attributed["ingest.parse_csv"] + attributed["ingest.serialize_csv"]
    metrics["attr.parse_serialize.pipeline_share"] = parse_serialize / pipeline if pipeline else 0.0
    metrics["attr.cumulative.spectrum_share"] = (
        spectrum_cumulative / spectrum_wall if spectrum_wall else 0.0
    )
    return metrics
