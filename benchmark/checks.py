"""Output checks for benchmark passes, run outside the timed region.

An operation is one (command, instrument) pair of a pass. It fails on a
nonzero exit, a line on stderr, or a failed output check:

* every pass's output files are byte-identical to the first pass's;
* normalized ingest output equals the generated bars with closes rounded
  to 6 decimals, planted bad rows removed and planted runs truncated, and
  ingest reports exactly the planted drop and dedup counts;
* ``compare.csv`` and a seeded sample of spectrum values match an oracle
  recomputed with ``bin_returns`` + ``shannon_entropy`` within the
  6-decimal print rounding; every spectrum row has the expected geometry.
"""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from entroscope.entropy import BinningSpec, bin_returns, shannon_entropy, velleman_bins

from workloads import Inputs, Instrument, Workload

PRINT_TOLERANCE = 0.5e-6 + 1e-9  # half a unit in the 6th decimal, plus float noise
SPECTRUM_SAMPLES = 600  # oracle-checked (sequence, k) pairs per run, over all instruments

_INGEST_LINE = re.compile(r"^(\S+): rows=(\d+) dropped=(\d+) removed=(\d+) -> ")
_SPECTRUM_LINE = re.compile(r"^(\S+): sequences=(\d+) events=(\d+)$")


@dataclass
class CommandRun:
    command: str
    rc: int | None  # None when main raised
    stdout: str
    stderr: str
    wall_s: float


def _stamp_text(timestamps: np.ndarray) -> list[str]:
    return [s.replace("T", " ") for s in np.datetime_as_string(timestamps, unit="s")]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """Checks every pass of one run; the first pass is checked in full and
    fixes the bytes every later pass must reproduce."""

    def __init__(self, workload: Workload, inputs: Inputs, seed: int):
        self.workload = workload
        self.inputs = inputs
        self.rng = np.random.default_rng([seed, 2])
        self.reference: dict[str, str] | None = None
        self.messages: list[str] = []
        self.shocks = sum(len(inst.shock_timestamps) for inst in inputs.instruments)
        self.shocks_covered = 0
        self.false_events = 0
        self._returns: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- bookkeeping -------------------------------------------------------

    def operations(self) -> list[tuple[str, str]]:
        return [
            (command, inst.instrument_id)
            for command in self.workload.commands
            for inst in self.inputs.instruments
        ]

    def _fail(self, failed: dict, command: str, instrument: str | None, reason: str) -> None:
        targets = (
            [inst.instrument_id for inst in self.inputs.instruments]
            if instrument is None
            else [instrument]
        )
        for name in targets:
            if (command, name) not in failed:
                failed[(command, name)] = reason
                if len(self.messages) < 50:
                    self.messages.append(f"{command}/{name}: {reason}")

    def _owner(self, relpath: str) -> tuple[str, str | None]:
        directory, name = relpath.split("/", 1)
        if directory == "normalized":
            return "ingest", name.removesuffix(".csv")
        if name == "compare.csv":
            return "compare", None
        return "spectrum", name.split("_", 1)[0]

    def output_files(self) -> dict[str, Path]:
        return {
            f"{d.name}/{p.name}": p
            for d in self.inputs.out_dirs
            if d.exists()
            for p in sorted(d.iterdir())
        }

    # -- one pass ------------------------------------------------------------

    def check_pass(self, runs: list[CommandRun]) -> dict[tuple[str, str], str]:
        """Return the failed operations of one pass, each with its reason."""
        failed: dict[tuple[str, str], str] = {}
        ids = {inst.instrument_id for inst in self.inputs.instruments}
        for run in runs:
            if run.rc != 0:
                self._fail(failed, run.command, None, f"exit code {run.rc}")
            for line in run.stderr.splitlines():
                name = line.split(":", 1)[0]
                self._fail(failed, run.command, name if name in ids else None, f"stderr: {line}")
            if run.command == "ingest":
                self._check_ingest_stdout(run.stdout, failed)
            elif run.command == "spectrum":
                self._check_spectrum_stdout(run.stdout, failed)

        files = self.output_files()
        digests = {rel: _sha256(path) for rel, path in files.items()}
        if self.reference is None:
            self.reference = digests
            self._check_contents(files, failed)
        else:
            for rel in sorted(set(digests) | set(self.reference)):
                if digests.get(rel) != self.reference.get(rel):
                    command, name = self._owner(rel)
                    self._fail(failed, command, name, f"{rel} differs from the first pass")
        return failed

    def _check_ingest_stdout(self, stdout: str, failed: dict) -> None:
        seen = {}
        for line in stdout.splitlines():
            match = _INGEST_LINE.match(line)
            if match:
                seen[match.group(1)] = tuple(int(g) for g in match.groups()[1:])
        for inst in self.inputs.instruments:
            want = (len(inst.closes), inst.planted.dropped, inst.planted.dedup_removed)
            got = seen.get(inst.instrument_id)
            if got != want:
                self._fail(
                    failed, "ingest", inst.instrument_id,
                    f"rows/dropped/removed {got}, planted {want}",
                )

    def _check_spectrum_stdout(self, stdout: str, failed: dict) -> None:
        seen = {}
        for line in stdout.splitlines():
            match = _SPECTRUM_LINE.match(line)
            if match:
                seen[match.group(1)] = int(match.group(2))
        for inst in self.inputs.instruments:
            want = self._sequence_count(inst)
            if seen.get(inst.instrument_id) != want:
                self._fail(
                    failed, "spectrum", inst.instrument_id,
                    f"reported sequences {seen.get(inst.instrument_id)}, expected {want}",
                )

    def check_planted_counts(
        self, dropped: dict[str, int], removed: dict[str, int], failed: dict
    ) -> None:
        """Traced drop and dedup counts per operation must equal the planted ones."""
        for inst in self.inputs.instruments:
            for command in self.workload.commands:
                op = f"{command}/{inst.instrument_id}"
                want = (0, 0)
                if command == "ingest":
                    want = (inst.planted.dropped, inst.planted.dedup_removed)
                got = (dropped.get(op, 0), removed.get(op, 0))
                if got != want:
                    self._fail(
                        failed, command, inst.instrument_id,
                        f"traced rows_dropped/dedup.removed {got}, planted {want}",
                    )

    # -- contents of the first pass -----------------------------------------

    def _check_contents(self, files: dict[str, Path], failed: dict) -> None:
        commands = self.workload.commands
        for inst in self.inputs.instruments:
            name = inst.instrument_id
            if "ingest" in commands:
                path = files.get(f"normalized/{name}.csv")
                if path is None:
                    self._fail(failed, "ingest", name, "no normalized output")
                elif path.read_text(encoding="utf-8") != self._expected_normalized(inst):
                    self._fail(
                        failed, "ingest", name, "normalized output differs from expected bars"
                    )
            if "spectrum" in commands:
                try:
                    self._check_spectrum(inst, files)
                except (KeyError, ValueError, IndexError) as exc:
                    self._fail(failed, "spectrum", name, f"{type(exc).__name__}: {exc}")
        if "compare" in commands:
            path = files.get("report/compare.csv")
            if path is None:
                self._fail(failed, "compare", None, "no compare.csv")
            else:
                try:
                    self._check_compare(path.read_text(encoding="utf-8"), failed)
                except (ValueError, IndexError) as exc:
                    self._fail(failed, "compare", None, f"{type(exc).__name__}: {exc}")

    def _expected_normalized(self, inst: Instrument) -> str:
        rows = [
            f"{stamp},{close:.6f}"
            for stamp, close in zip(_stamp_text(inst.timestamps), inst.closes.tolist())
        ]
        return "timestamp,close\n" + "\n".join(rows) + "\n"

    def _oracle_returns(self, inst: Instrument) -> tuple[np.ndarray, np.ndarray]:
        """Log returns of the closes as every command reads them: 6 decimals."""
        if inst.instrument_id not in self._returns:
            closes = np.array([float(f"{c:.6f}") for c in inst.closes.tolist()])
            self._returns[inst.instrument_id] = (
                inst.timestamps[1:],
                np.log(closes[1:] / closes[:-1]),
            )
        return self._returns[inst.instrument_id]

    def _check_compare(self, text: str, failed: dict) -> None:
        w = self.workload
        rows = {line.split(",", 1)[0]: line for line in text.splitlines()[1:]}
        for inst in self.inputs.instruments:
            line = rows.get(inst.instrument_id)
            if line is None:
                self._fail(failed, "compare", inst.instrument_id, "missing compare.csv row")
                continue
            printed = [float(v) for v in line.split(",")[1:]]
            ts, values = self._oracle_returns(inst)
            dates = ts.astype("datetime64[D]")
            anchor = np.datetime64(w.anchor_date, "D")
            before_dates = np.unique(dates[dates < anchor])
            after_dates = np.unique(dates[dates >= anchor])
            before = values[(dates >= before_dates[-w.window_days]) & (dates < anchor)]
            after = values[(dates >= anchor) & (dates <= after_dates[w.window_days - 1])]
            spec = BinningSpec(velleman_bins(len(before)))
            oracle = []
            entropy = [shannon_entropy(bin_returns(side, spec)) for side in (before, after)]
            std = [float(np.std(side, ddof=1)) for side in (before, after)]
            for b, a in (entropy, std):
                oracle += [b, a, (a - b) / ((a + b) / 2.0)]
            worst = max(abs(p - o) for p, o in zip(printed, oracle))
            if len(printed) != 6 or worst > PRINT_TOLERANCE:
                self._fail(
                    failed, "compare", inst.instrument_id,
                    f"compare.csv row off the oracle by {worst:.3g}",
                )

    def _sequence_count(self, inst: Instrument) -> int:
        g = self.workload.geometry
        return (len(inst.closes) - 1 - g.span) // g.stride + 1

    def _check_spectrum(self, inst: Instrument, files: dict[str, Path]) -> None:
        name = inst.instrument_id
        g = self.workload.geometry
        ts, values = self._oracle_returns(inst)
        count = self._sequence_count(inst)
        anchors = _stamp_text(ts[np.arange(count) * g.stride])

        lines = files[f"report/{name}_spectrum.csv"].read_text(encoding="utf-8").splitlines()
        if lines[0] != "sequence_index,anchor_timestamp,k,window_len,H":
            raise ValueError("spectrum header")
        rows = lines[1:]
        windows = g.steps + 1
        if len(rows) != count * windows:
            raise ValueError(f"{len(rows)} spectrum rows, expected {count * windows}")
        h = np.empty(len(rows))
        for i, row in enumerate(rows):
            prefix, h_text = row.rsplit(",", 1)
            j, k = divmod(i, windows)
            if prefix != f"{j},{anchors[j]},{k},{g.base_length + k * g.increment}":
                raise ValueError(f"spectrum row {i} geometry: {prefix}")
            h[i] = float(h_text)
        if not np.all((h >= 0) & (h <= math.log(g.n_bins) + PRINT_TOLERANCE)):
            raise ValueError("spectrum H outside [0, ln n_bins]")

        if self.workload.range_policy == "per-window":
            spec = BinningSpec(g.n_bins)
        else:
            spec = BinningSpec(g.n_bins, lo=float(values.min()), hi=float(values.max()))
        per_instrument = max(1, SPECTRUM_SAMPLES // len(self.inputs.instruments))
        for i in self.rng.choice(len(rows), min(per_instrument, len(rows)), replace=False):
            j, k = divmod(int(i), windows)
            start = j * g.stride
            window = values[start : start + g.base_length + k * g.increment]
            oracle = shannon_entropy(bin_returns(window, spec))
            if abs(h[i] - oracle) > PRINT_TOLERANCE:
                raise ValueError(f"H[{j},{k}] = {h[i]} but the oracle gives {oracle}")

        events = files[f"report/{name}_events.csv"].read_text(encoding="utf-8").splitlines()
        index_of = {stamp: j for j, stamp in enumerate(anchors)}
        covered = set()
        for row in events[1:]:
            j = index_of[row.split(",", 1)[0]]
            lo, hi = ts[j * g.stride], ts[j * g.stride + g.span - 1]
            hits = {s for s in inst.shock_timestamps if lo <= s <= hi}
            covered |= hits
            self.false_events += not hits
        self.shocks_covered += len(covered)
