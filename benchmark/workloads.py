"""Benchmark workloads: seeded synthetic inputs and the CLI passes run on them.

Every input is derived from the run's ``--seed``; the program under test
sees only the CSV files and JSON configs written here. ``batch-day`` raw
files carry deterministic dirt whose planted counts are recorded, so the
checks know exactly which rows ingest must drop and dedup must remove.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from entroscope.entropy import velleman_bins
from entroscope.ingest import serialize_csv
from entroscope.synth import Shock, ShockShape, SynthSpec, generate

BARS_PER_DAY = 78
SHOCK_SIGMA = 10.0


@dataclass(frozen=True)
class Geometry:
    """Spectrum window geometry in returns, as the CLI resolves it."""

    base_length: int
    increment: int
    steps: int
    stride: int

    @property
    def span(self) -> int:
        return self.base_length + self.steps * self.increment

    @property
    def n_bins(self) -> int:
        return velleman_bins(self.base_length)


DAY_GEOMETRY = Geometry(BARS_PER_DAY, BARS_PER_DAY, 13, BARS_PER_DAY)  # CLI defaults


@dataclass(frozen=True)
class Workload:
    name: str
    instruments: int
    days: int
    commands: tuple[str, ...]
    geometry: Geometry
    shock_days: tuple[int, ...] = ()
    dirty: bool = False
    range_policy: str | None = None  # config "range_policy"; None keeps "fixed"
    anchor_date: str | None = None
    window_days: int | None = None
    sequence: dict | None = None  # config "sequence" object; None keeps defaults
    baseline: int | None = None  # config "baseline"; None keeps the default 8


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "batch-day",
            instruments=15,
            days=257,
            commands=("ingest", "compare", "spectrum"),
            geometry=DAY_GEOMETRY,
            dirty=True,
            anchor_date="2025-05-15",
            window_days=100,
        ),
        Workload(
            "onset-bar",
            instruments=1,
            days=500,
            commands=("spectrum",),
            geometry=Geometry(78, 26, 3, 1),
            shock_days=(80, 200, 320, 440),
            sequence={"base_length": 78, "increment": 26, "steps": 3, "stride": 1},
            # The default baseline of 8 sequences spans only 8 bars at stride 1
            # and finds none of the shocks; one day of sequences does.
            baseline=78,
        ),
        Workload(
            "per-window",
            instruments=4,
            days=257,
            commands=("spectrum",),
            geometry=DAY_GEOMETRY,
            range_policy="per-window",
        ),
    )
}


@dataclass
class Planted:
    """Dirt planted in one raw file, by the reason ingest must act on it."""

    hyphenated: int = 0  # kept, normalized to HH:MM:SS
    unparseable: int = 0
    invalid_date: int = 0
    non_finite: int = 0
    non_positive: int = 0
    duplicate: int = 0
    closed_runs: int = 0
    dedup_removed: int = 0

    @property
    def dropped(self) -> int:
        return (
            self.unparseable
            + self.invalid_date
            + self.non_finite
            + self.non_positive
            + self.duplicate
        )


@dataclass
class Instrument:
    instrument_id: str
    timestamps: np.ndarray  # generated bars, datetime64[s]
    closes: np.ndarray  # generated closes, unrounded
    shock_timestamps: list[np.datetime64]
    raw_path: Path
    planted: Planted = field(default_factory=Planted)


@dataclass
class Inputs:
    instruments: list[Instrument]
    configs: dict[str, Path]  # command -> config path
    out_dirs: list[Path]  # every directory the pass writes into
    digest: str  # sha256 over every file written, to prove set-up is deterministic
    generate_s: float  # time inside synth.generate
    bars: int


# Dirt sizes per raw file; positions and values come from the seed.
_HYPHENATED_SHARE = 0.01
_UNPARSEABLE = 8
_INVALID_DATE = 6
_NON_FINITE = 6
_NON_POSITIVE = 4
_DUPLICATES = 10
_CLOSED_RUNS = 8
_CLOSED_RUN_EXTRA = (6, 12)  # copies appended after the day's last bar


def _split(line: str) -> tuple[str, str, str]:
    stamp, close = line.split(",")
    date, hms = stamp.split(" ")
    return date, hms, close


def make_dirty(lines: list[str], rng: np.random.Generator) -> tuple[list[str], Planted]:
    """Plant drop-path dirt into the data lines of a clean 5-minute CSV.

    Extra rows are inserted after existing bars; the only existing rows
    changed are hyphenated ones, which ingest must keep. Closed-market runs
    append after-hours copies of a day's last close, and only on days where
    the neighbouring closes differ, so dedup removes exactly the copies.
    """
    n = len(lines)
    days = n // BARS_PER_DAY
    planted = Planted()
    after: dict[int, list[str]] = {}

    def insert(bar: int, line: str) -> None:
        after.setdefault(bar, []).append(line)

    closes = [line.rsplit(",", 1)[1] for line in lines]
    for day in rng.permutation(days - 1):
        if planted.closed_runs == _CLOSED_RUNS:
            break
        last = int(day) * BARS_PER_DAY + BARS_PER_DAY - 1
        if closes[last - 1] == closes[last] or closes[last + 1] == closes[last]:
            continue
        date = _split(lines[last])[0]
        extra = int(rng.integers(_CLOSED_RUN_EXTRA[0], _CLOSED_RUN_EXTRA[1] + 1))
        for m in range(extra):
            insert(last, f"{date} {16 + m // 12:02d}:{5 * (m % 12):02d}:00,{closes[last]}")
        planted.closed_runs += 1
        planted.dedup_removed += extra

    def random_bar() -> tuple[int, str, str, str]:
        bar = int(rng.integers(0, n))
        return (bar, *_split(lines[bar]))

    for bar in rng.choice(n, _DUPLICATES, replace=False):
        date, hms, close = _split(lines[int(bar)])
        insert(int(bar), f"{date} {hms},{float(close) * 1.01:.6f}")
        planted.duplicate += 1

    for i in range(_UNPARSEABLE):
        bar, date, hms, close = random_bar()
        stamp = (
            f"{date}T{hms}",
            f"{date.replace('-', '/')} {hms}",
            f"{hms} {date}",
            f"{date} {hms[:5]}",
            "n/a",
            "",
        )[i % 6]
        insert(bar, f"{stamp},{close}")
        planted.unparseable += 1

    for i in range(_INVALID_DATE):
        bar, date, hms, close = random_bar()
        year = date[:4]
        stamp = (
            f"{year}-02-30 {hms}",
            f"{year}-04-31 {hms}",
            f"{year}-13-05 {hms}",
            f"{date} 24:30:00",
            f"{date} {hms[:2]}:61:00",
            f"{year}-02-30 {hms.replace(':', '-')}",
        )[i % 6]
        insert(bar, f"{stamp},{close}")
        planted.invalid_date += 1

    # Off-grid seconds never collide with a bar, so only the price drops them.
    for i in range(_NON_FINITE):
        bar, date, hms, _ = random_bar()
        insert(bar, f"{date} {hms[:6]}30,{('nan', 'NaN', 'inf', '-inf')[i % 4]}")
        planted.non_finite += 1
    for i in range(_NON_POSITIVE):
        bar, date, hms, close = random_bar()
        insert(bar, f"{date} {hms[:6]}30,{('0.000000', '-' + close)[i % 2]}")
        planted.non_positive += 1

    out = []
    for bar, line in enumerate(lines):
        if rng.random() < _HYPHENATED_SHARE:
            date, hms, close = _split(line)
            line = f"{date} {hms.replace(':', '-')},{close}"
            planted.hyphenated += 1
        out.append(line)
        out.extend(after.get(bar, ()))
    return out, planted


def _write(path: Path, text: str, digest) -> None:
    data = text.encode("utf-8")
    path.write_bytes(data)
    digest.update(path.name.encode())
    digest.update(data)


def build_inputs(workload: Workload, seed: int, work_dir: Path) -> Inputs:
    """Generate and write the workload's raw CSVs and per-command configs."""
    raw_dir = work_dir / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    shocks = tuple(Shock(d, SHOCK_SIGMA, ShockShape.DISPERSED_DAY) for d in workload.shock_days)
    instruments = []
    generate_s = 0.0
    bars = 0
    for i in range(workload.instruments):
        instrument_id = f"{workload.name[:2]}{i:02d}"
        spec = SynthSpec(
            seed=seed * 1000 + i,
            n_days=workload.days,
            bars_per_day=BARS_PER_DAY,
            shocks=shocks,
            instrument_id=instrument_id,
        )
        t0 = time.perf_counter()
        series, log = generate(spec)
        generate_s += time.perf_counter() - t0
        bars += len(series)
        text = serialize_csv(series)
        planted = Planted()
        if workload.dirty:
            lines = text.splitlines()
            rng = np.random.default_rng([seed, i, 1])
            data, planted = make_dirty(lines[1:], rng)
            text = "\n".join([lines[0], *data]) + "\n"
        raw_path = raw_dir / f"{instrument_id}.csv"
        _write(raw_path, text, digest)
        instruments.append(
            Instrument(
                instrument_id,
                series.timestamps,
                series.closes,
                [rec.timestamp for rec in log],
                raw_path,
                planted,
            )
        )

    report_dir = work_dir / "report"
    configs: dict[str, Path] = {}
    out_dirs = [report_dir]
    analysed = [(inst.instrument_id, inst.raw_path) for inst in instruments]
    if "ingest" in workload.commands:
        norm_dir = work_dir / "normalized"
        out_dirs.insert(0, norm_dir)
        configs["ingest"] = work_dir / "ingest.json"
        _write(configs["ingest"], _config(analysed, norm_dir), digest)
        analysed = [(name, norm_dir / f"{name}.csv") for name, _ in analysed]
    report = _config(
        analysed,
        report_dir,
        anchor_date=workload.anchor_date,
        window_days=workload.window_days,
        range_policy=workload.range_policy,
        sequence=workload.sequence,
        baseline=workload.baseline,
    )
    report_path = work_dir / "report.json"
    _write(report_path, report, digest)
    for command in workload.commands:
        configs.setdefault(command, report_path)
    return Inputs(instruments, configs, out_dirs, digest.hexdigest(), generate_s, bars)


def _config(instruments: list[tuple[str, Path]], out_dir: Path, **extra) -> str:
    config = {
        "instruments": [
            {"id": name, "path": str(path), "frequency": "5min"} for name, path in instruments
        ],
        "out_dir": str(out_dir),
    }
    config.update({key: value for key, value in extra.items() if value is not None})
    return json.dumps(config, indent=1)
