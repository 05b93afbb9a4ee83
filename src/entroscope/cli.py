"""Command-line pipeline: ingest -> returns -> reports.

Subcommands: ``ingest`` (normalize and clean raw CSVs), ``compare``
(before/after entropy and dispersion table), ``spectrum`` (expanding-window
entropy spectra, monthly profile, event list), ``pmf`` (single-day vs
multi-day distribution snapshots under shared binning), ``synth``
(synthetic fixtures). Batch runs are driven by one JSON config; flags
override config values. Exit codes: 0 ok, 2 input error, 3 insufficient
data. A malformed or missing flag, or an unknown command, exits 2 with one
``error: <message>`` line that names the flag.

The config is type-checked as it is loaded: an unknown key, a wrongly
typed value, a missing instrument ``id``/``path``/``frequency``, an
instrument ``id`` that is not a plain file name or repeats another's, or an
instrument path that is not a file exits 2 before any output is written.
A batch command runs every instrument even when some fail, reports each
failure as one ``<id>: error: <message>`` line on stderr, and exits with
the code of the first failure; ``pmf`` reports the failure of its one
instrument the same way. A stdout closed by its reader is no failure: the
summary lines it can no longer take are dropped.

Outputs are plain CSV files, written deterministically: rerunning a
command on identical inputs produces byte-identical files. This module
lays out their columns; ``codec`` renders every field. Every file is
written by ``_write``, one unit at a time and all or none: one
instrument's files, ``compare.csv``, or ``synth``'s price file with its
injection log. A failed write leaves no file of its unit, not even one
from an earlier run, and no temp file.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import EnumMeta
from pathlib import Path
from types import UnionType
from typing import Annotated, Literal, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import codec
from .cumulative import (
    GROW_RIGHT,
    EventSignature,
    SpectrumTable,
    WindowSequenceSpec,
    detect_events,
    spectra_for_series,
)
from .entropy import BinnedDistribution, BinningSpec, pmf_snapshot, velleman_bins
from .errors import EmptyInput, InsufficientBaseline, PipelineError, SeriesTooShort, TooShort
from .ingest import (
    DEFAULT_DEDUP_RUN_LENGTH,
    Frequency,
    aggregate_to_daily,
    dedup_closed_market,
    parse_csv_file,
    serialize_csv,
)
from .returns import (
    ReturnKind,
    ReturnSeries,
    bracket_windows,
    log_returns,
    nominal_returns,
)
from .stats import Metric, compare_windows
from .synth import Shock, ShockShape, SynthSpec, generate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INSUFFICIENT = 3

# What one instrument, or one command, may fail with and still end in a
# one-line message and an exit code rather than a traceback. A
# MemoryError comes from arrays sized by the input or the config (a huge
# ``bins``), not from the interpreter running dry; an OverflowError from a
# config or flag integer too large for a float or an int64.
_FAILURES = (PipelineError, OSError, ValueError, MemoryError, OverflowError)


@dataclass(frozen=True)
class AtLeast:
    """``Annotated`` metadata of a config field: the value is finite and at
    least ``low``, or above it when ``strict``; an int also fits an int64,
    as the lengths, counts and seeds it sets are taken in one."""

    low: int
    strict: bool = False

    def check(self, value, where: str) -> None:
        above = value > self.low if self.strict else value >= self.low
        # Every int is finite; one past the float range cannot go to isfinite.
        if not ((type(value) is int or math.isfinite(value)) and above):
            bound = f"{'>' if self.strict else '>='} {self.low}"
            raise ValueError(f"{where}: expected a finite number {bound}, got {value!r}")
        if type(value) is int and value >= 2**63:
            raise ValueError(f"{where}: expected an integer below 2**63, got {value!r}")


@dataclass(frozen=True)
class IsDate:
    """``Annotated`` metadata of a config field: the text names a day, as
    ``np.datetime64(value, "D")`` reads it; NaT names none."""

    def check(self, value, where: str) -> None:
        try:
            day = np.datetime64(value, "D")
        except ValueError:
            day = np.datetime64("NaT")
        if np.isnat(day):
            raise ValueError(f"{where}: expected a date YYYY-MM-DD, got {value!r}")


@dataclass(frozen=True)
class IsFileName:
    """``Annotated`` metadata of a config field: the text names a file
    inside a directory: not empty, not ``.`` or ``..``, and without ``/``,
    ``\\`` or a control character (NUL and line ends among them), since
    the name also starts one-line messages, and without ``,`` or ``"``,
    since it is also a field of ``compare.csv``."""

    def check(self, value, where: str) -> None:
        if value in ("", ".", "..") or any(c in '/\\,"\x7f' or c < " " for c in value):
            raise ValueError(f"{where}: expected a plain file name, got {value!r}")


PositiveInt = Annotated[int, AtLeast(1)]


@dataclass
class InstrumentEntry:
    id: Annotated[str, IsFileName()]
    path: str
    frequency: Frequency


@dataclass
class SequenceConfig:
    """Window-sequence geometry; unset lengths default to one trading day
    of bars resolved from the data."""

    base_length: Annotated[int, AtLeast(2)] | None = None
    increment: PositiveInt | None = None
    steps: Annotated[int, AtLeast(0)] = 13
    stride: PositiveInt | None = None
    anchor_mode: Literal["grow-right", "grow-left"] = GROW_RIGHT


@dataclass
class RunConfig:
    instruments: list[InstrumentEntry] = field(default_factory=list)
    anchor_date: Annotated[str, IsDate()] | None = None
    window_days: PositiveInt = 100
    bins: PositiveInt | None = None
    dt_col: str = "timestamp"
    close_col: str = "close"
    dedup_run_length: PositiveInt = DEFAULT_DEDUP_RUN_LENGTH
    return_kind: ReturnKind = ReturnKind.LOG
    aggregate_daily: bool = False
    range_policy: Literal["fixed", "per-window"] = "fixed"
    sequence: SequenceConfig = field(default_factory=SequenceConfig)
    theta: Annotated[float, AtLeast(0, strict=True)] = 3.0
    min_persistence: PositiveInt = 2
    baseline: PositiveInt = 8
    out_dir: str = "out"


# Flags that override the config value of the same name when given.
_OVERRIDES = ("out_dir", "dt_col", "close_col", "bins", "theta")


@functools.cache
def _hints(cls) -> dict:
    """The type hints of a config dataclass, ``Annotated`` rules included;
    taken once per class."""
    return get_type_hints(cls, include_extras=True)


def _typed(hint, value, where: str):
    """Return the JSON ``value`` as type ``hint``.

    Dataclasses come from objects whose keys are field names; ``list[X]``,
    ``X | None``, enums (by value) and ``Literal`` choices are read
    recursively; ``int``, ``str`` and ``bool`` must match exactly (a bool is
    not an int) and ``float`` also takes an int; ``Annotated[X, rule]``
    reads an X and checks it with ``rule.check``. A mismatch raises
    ``ValueError`` naming ``where``, the value's path in the config.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin in (UnionType, Union):  # X | None
        return None if value is None else _typed(args[0], value, where)
    if origin is Annotated:
        value = _typed(args[0], value, where)
        for rule in args[1:]:
            rule.check(value, where)
        return value
    if is_dataclass(hint):
        if type(value) is not dict:
            raise ValueError(f"{where}: expected an object, got {value!r}")
        hints = _hints(hint)
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise ValueError(f"{where}: unknown keys {unknown}")
        missing = [
            f.name
            for f in fields(hint)
            if f.name not in value and f.default is MISSING and f.default_factory is MISSING
        ]
        if missing:
            raise ValueError(f"{where}: missing keys {missing}")
        return hint(**{k: _typed(hints[k], item, f"{where}.{k}") for k, item in value.items()})
    if origin is list:
        if type(value) is not list:
            raise ValueError(f"{where}: expected a list, got {value!r}")
        return [_typed(args[0], item, f"{where}[{i}]") for i, item in enumerate(value)]
    if origin is Literal or isinstance(hint, EnumMeta):
        choices = list(args) if origin is Literal else [member.value for member in hint]
        if value not in choices:
            raise ValueError(f"{where}: expected one of {choices}, got {value!r}")
        return value if origin is Literal else hint(value)
    if hint is float and type(value) is int:
        return float(value)
    if type(value) is not hint:
        raise ValueError(f"{where}: expected {hint.__name__}, got {value!r}")
    return value


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON run config; every key is type-checked against ``RunConfig``
    and no two instruments share an ``id``, which names their output files."""
    config = _typed(RunConfig, json.loads(Path(path).read_text(encoding="utf-8")), "config")
    first: dict[str, int] = {}
    for i, entry in enumerate(config.instruments):
        j = first.setdefault(entry.id, i)
        if j != i:
            raise ValueError(
                f"config.instruments[{i}].id: {entry.id!r} is already the id of "
                f"config.instruments[{j}]"
            )
    return config


def _load(args: argparse.Namespace) -> RunConfig:
    """The config of one command: flag overrides applied and checked like
    the config values they replace, at least one instrument, and every
    instrument path an existing file."""
    config = load_config(args.config)
    hints = _hints(RunConfig)
    for key in _OVERRIDES:
        if getattr(args, key) is not None:
            setattr(config, key, _typed(hints[key], getattr(args, key), key))
    if not config.instruments:
        raise ValueError("config lists no instruments")
    missing = [entry.path for entry in config.instruments if not Path(entry.path).is_file()]
    if missing:
        raise FileNotFoundError(f"file not found: {', '.join(map(repr, missing))}")
    return config


def _exit_code(exc: Exception) -> int:
    insufficient = isinstance(exc, (SeriesTooShort, InsufficientBaseline, TooShort))
    return EXIT_INSUFFICIENT if insufficient else EXIT_INPUT


def _say(line: str) -> None:
    """Print one summary line on stdout. A reader that closes stdout early
    fails no instrument: from the first BrokenPipeError on, later lines go
    to os.devnull."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        sys.stdout = open(os.devnull, "w")


def _each_instrument(config: RunConfig, fn, **kwargs) -> int:
    """Run ``fn(config, entry, **kwargs)`` on every instrument in order. It
    returns the instrument's summary line (or None) and its output files as
    ``(path, content)`` pairs, which ``_write`` writes, all or none, before
    the line is printed.

    A failing instrument is reported as one ``<id>: error: <msg>`` line on
    stderr and leaves none of its files. The rest still run; the result is
    the exit code of the first failure, or 0.
    """
    code = EXIT_OK
    for entry in config.instruments:
        try:
            line, files = fn(config, entry, **kwargs)
            _write(files)
        except _FAILURES as exc:
            print(f"{entry.id}: error: {exc}", file=sys.stderr)
            code = code or _exit_code(exc)
            continue
        if line is not None:
            _say(line)
    return code


def _parse(config: RunConfig, entry: InstrumentEntry):
    return parse_csv_file(
        entry.path, entry.frequency, entry.id, dt_col=config.dt_col, close_col=config.close_col
    )


def _load_returns(config: RunConfig, entry: InstrumentEntry) -> ReturnSeries:
    series, _ = _parse(config, entry)
    if config.aggregate_daily:
        series = aggregate_to_daily(series)
    if config.return_kind is ReturnKind.LOG:
        return log_returns(series)
    return nominal_returns(series)


def _bars_per_day(returns: ReturnSeries) -> int:
    """The most common number of bars in a trading day (the smallest of
    equally common ones)."""
    _, bounds = returns.days
    return int(np.bincount(np.diff(bounds)).argmax())


def _resolve_sequence(config: RunConfig, returns: ReturnSeries) -> WindowSequenceSpec:
    seq = config.sequence
    day = _bars_per_day(returns)
    # Daily data has one bar per day, so day-based defaults degenerate.
    base, increment, stride = (day, day, day) if day >= 2 else (10, 5, 5)
    return WindowSequenceSpec(
        base_length=seq.base_length if seq.base_length is not None else base,
        increment=seq.increment if seq.increment is not None else increment,
        steps=seq.steps,
        stride=seq.stride if seq.stride is not None else stride,
        anchor_mode=seq.anchor_mode,
    )


def _spectrum_binning(config: RunConfig, returns: ReturnSeries, base_length: int) -> BinningSpec:
    n_bins = config.bins if config.bins is not None else velleman_bins(base_length)
    if config.range_policy == "per-window":
        return BinningSpec(n_bins)
    return BinningSpec.spanning(returns.values, n_bins)


def _write(files: list[tuple[Path, str | bytes | Iterable[bytes]]]) -> None:
    """Write every ``(path, content)`` pair in order, all or none. Text is
    encoded as UTF-8; an iterable of byte strings is written in order as
    it is produced. Each file goes through a sibling temp file renamed over
    ``path``, so no path holds a partial file. When one fails, every path
    of the call and its temp file are removed (those already renamed into
    place, and a file an earlier run left at a path not yet reached) and
    the error is raised again, so no unit is left mixing this run's files
    with another's."""
    try:
        for path, content in files:
            if isinstance(content, str):
                content = content.encode("utf-8")
            if isinstance(content, bytes):
                content = (content,)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            with tmp.open("wb") as f:
                f.writelines(content)
            os.replace(tmp, path)
    except BaseException:
        for path, _ in files:
            path.unlink(missing_ok=True)
            path.with_name(path.name + ".tmp").unlink(missing_ok=True)
        raise


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _ingest_one(config: RunConfig, entry: InstrumentEntry) -> tuple:
    series, diag = _parse(config, entry)
    series, dedup = dedup_closed_market(series, config.dedup_run_length)
    out_path = Path(config.out_dir) / f"{entry.id}.csv"
    line = (f"{entry.id}: rows={len(series)} dropped={diag.dropped} "
            f"removed={dedup.removed} -> {out_path}")
    return line, [(out_path, serialize_csv(series))]


def cmd_ingest(args: argparse.Namespace) -> int:
    return _each_instrument(_load(args), _ingest_one)


def _compare_row(config: RunConfig, entry: InstrumentEntry, ids: list, values: list) -> tuple:
    returns = _load_returns(config, entry)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            before, after = bracket_windows(returns, config.anchor_date, config.window_days)
        finally:
            for warning in caught:
                print(f"{entry.id}: warning: {warning.message}", file=sys.stderr)
    # Without ``bins``, ``compare_windows`` takes the bin count of the
    # before-window.
    binning = None if config.bins is None else BinningSpec(config.bins)
    entropy_cmp = compare_windows(returns, before, after, Metric.ENTROPY, binning=binning)
    std_cmp = compare_windows(returns, before, after, Metric.STD_DEV)
    ids.append(entry.id)
    values += [entropy_cmp.before, entropy_cmp.after, entropy_cmp.pct_difference,
               std_cmp.before, std_cmp.after, std_cmp.pct_difference]
    return None, []  # compare.csv is written once every instrument has run


def _compare_csv(ids: list[str], values: list[float]) -> bytes:
    """The bytes of ``compare.csv``: one row per id, with the id's six
    ``values``, which follow each other in one list."""
    fields = [codec.text(ids)]
    for column in np.reshape(values, (-1, 6)).T:
        fields += [b",", codec.fixed6(column)]
    return (
        b"instrument,entropy_before,entropy_after,entropy_pct_diff,"
        b"std_before,std_after,std_pct_diff\n" + codec.rows(*fields, b"\n")
    )


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load(args)
    if config.anchor_date is None:
        raise ValueError("compare requires anchor_date in the config")
    ids, values = [], []
    code = _each_instrument(config, _compare_row, ids=ids, values=values)
    _write([(Path(config.out_dir) / "compare.csv", _compare_csv(ids, values))])
    return code


def _items(text: np.ndarray, width: int) -> np.ndarray:
    """Text rows padded with NUL to ``width`` bytes, as one void item per
    row: numpy copies an item whole where it copies a row byte by byte."""
    if text.shape[1] < width:
        text = np.pad(text, ((0, 0), (0, width - text.shape[1])))
    return np.ascontiguousarray(text).view(f"V{width}")[:, 0]


class _Rendered:
    """``codec.fixed6`` text of values rendered before, as NUL-padded void
    items of one width, in a direct-mapped cache keyed by each value's 64
    bits.

    A value's slot is the top bits of its bits times 0x9E3779B97F4A7C15
    (Fibonacci hashing); a value that takes a slot evicts the one before.
    A table of ``cells`` values gets the next power of two >= 2 * min(cells,
    2**15) slots. Every slot holds the text of its key: an empty slot's key
    is a NaN pattern that no entropy has, and its text is ``nan``, as
    ``fixed6`` renders any NaN, so a lookup is right for every value. The
    cache is seeded with ``values`` and their text ``items``, whose width
    every later text must fit."""

    _EMPTY = np.uint64(0x7FF0_0000_0000_0001)

    def __init__(self, values: np.ndarray, items: np.ndarray, cells: int):
        slot_bits = (2 * min(cells, 2**15) - 1).bit_length()
        self._shift = np.uint64(64 - slot_bits)
        self._keys = np.full(1 << slot_bits, self._EMPTY)
        self._text = np.full(1 << slot_bits, b"nan".ljust(items.itemsize, b"\0"), items.dtype)
        bits = values.view(np.uint64)
        self._store(bits, self._slots(bits), items)

    def _slots(self, bits: np.ndarray) -> np.ndarray:
        # The product wraps modulo 2**64; the slot fits an int64.
        return ((bits * np.uint64(0x9E3779B97F4A7C15)) >> self._shift).view(np.int64)

    def _store(self, bits: np.ndarray, slots: np.ndarray, items: np.ndarray) -> None:
        # Values that share a slot write their keys in some order; only the
        # one whose key stayed writes its text.
        self._keys[slots] = bits
        won = self._keys.take(slots) == bits
        self._text[slots[won]] = items[won]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """``codec.fixed6(values)`` as items of the cache's width: the text
        of cached values is copied, and only the others are rendered and
        cached."""
        bits = values.view(np.uint64)
        slots = self._slots(bits)
        items = self._text.take(slots)  # read before a miss takes a slot
        miss = np.flatnonzero(self._keys.take(slots) != bits)
        if len(miss):
            fresh = _items(codec.fixed6(values[miss]), self._text.itemsize)
            items[miss] = fresh
            self._store(bits[miss], slots[miss], fresh)
        return items


def _records(middles: list[bytes], rows: int, head_width: int, text_width: int):
    """A template of ``rows`` sequence records and the views of its fields.

    A record holds one sequence's rows: window k's row is a head field of
    ``head_width`` bytes, ``middles[k]``, a text field of ``text_width``
    bytes and the line end. The middles and line ends are written here,
    once per template. Each run of windows whose middles have one length
    shares one stride between rows, so its head fields and its text fields
    are each one (rows, windows) view of void items; a block fills them
    with whole-item copies."""
    record = b"".join(
        b"\0" * head_width + middle + b"\0" * text_width + b"\n" for middle in middles
    )
    template = np.tile(np.frombuffer(record, dtype=np.uint8), (rows, 1))
    fields = []
    lengths, bounds = codec.runs(np.array([len(middle) for middle in middles]))
    at = 0
    for length, k0, k1 in zip(lengths.tolist(), bounds.tolist(), bounds[1:].tolist()):
        stride = head_width + length + text_width + 1
        shape, strides = (rows, k1 - k0), (len(record), stride)
        heads = np.ndarray(shape, f"V{head_width}", template, at, strides)
        texts = np.ndarray(shape, f"V{text_width}", template, at + head_width + length, strides)
        fields.append((heads, texts, slice(k0, k1)))
        at += (k1 - k0) * stride
    return template, fields


def _spectrum_csv(table: SpectrumTable, frequency: Frequency) -> Iterator[bytes]:
    """The bytes of ``spectrum.csv``, one block of rows at a time.

    Entropies are finite and >= 0, and ``%.6f`` text only widens as a value
    grows, so the table's largest entropy has its widest text: that width
    holds every entropy's text, NUL-padded. The first block's entropies
    are rendered by ``codec.fixed6``; when more blocks follow, their text
    seeds a ``_Rendered`` cache, and every later block renders only the
    entropies it does not hold.

    Row (j, k) is sequence j's head ``j,anchor``, window k's middle
    ``,k,window_len,``, H and the line end. A block's heads and entropy
    text are copied whole into a ``_records`` template, built again only
    when the head width changes, and the block's bytes are copied out of
    the template's first records. NUL padding is dropped only from a block
    whose heads or text hold it: indices of more than one width or entropy
    text narrower than the table's widest."""
    n_sequences, n_windows = table.values.shape
    middles = codec.rows(
        b",", codec.integers(np.arange(n_windows)), b",",
        codec.integers(table.spec.lengths), b",\n",
    ).split(b"\n")[:-1]
    anchors = codec.stamps(table.anchor_timestamps, frequency is Frequency.DAILY)
    yield b"sequence_index,anchor_timestamp,k,window_len,H\n"
    block = max(1, codec.BLOCK_ROWS // n_windows)
    width = len(f"{table.peaks.max():.6f}")
    rendered = head_width = None
    for lo in range(0, n_sequences, block):
        hi = min(lo + block, n_sequences)
        head = codec.columns([codec.integers(np.arange(lo, hi)), b",", anchors[lo:hi]])
        values = table.values[lo:hi].ravel()
        if rendered is None:
            text = _items(codec.fixed6(values), width)
            if hi < n_sequences:
                rendered = _Rendered(values, text, table.values.size)
        else:
            text = rendered(values)
        if head_width != head.shape[1]:
            head_width = head.shape[1]
            template, fields = _records(middles, min(block, n_sequences), head_width, width)
        heads = _items(head, head_width)[:, None]
        texts = text.reshape(hi - lo, n_windows)
        for head_field, text_field, windows in fields:
            head_field[: hi - lo] = heads
            text_field[: hi - lo] = texts[:, windows]
        padded = head.min() == 0 or text.view(np.uint8).min() == 0
        # Records are copied out a quarter block at a time: beside the
        # template, a part's bytes and their stripped copy then hold half a
        # block, where a whole block's would hold two.
        for part in np.array_split(template[: hi - lo], 4):
            out = part.tobytes()
            yield out.replace(b"\0", b"") if padded else out


def _monthly_csv(table: SpectrumTable) -> bytes:
    # Anchors ascend, so each month's sequences are one run of its month;
    # a month with no anchor has no run and gets no row. The months are
    # taken of the anchors' days, one conversion per trading day.
    days, day_bounds = codec.runs(table.anchor_timestamps.astype("datetime64[D]"))
    months, month_bounds = codec.runs(days.astype("datetime64[M]"))
    bounds = day_bounds[month_bounds]
    groups = np.split(table.peaks, bounds[1:-1])
    return b"month,mean_peak_entropy,max_peak_entropy,sequences\n" + codec.rows(
        codec.stamps(months, daily=True)[:, :7], b",",  # YYYY-MM
        codec.fixed6([np.mean(group) for group in groups]), b",",
        codec.fixed6([group.max() for group in groups]), b",",
        codec.integers(np.diff(bounds)), b"\n",
    )


def _events_csv(events: list[EventSignature], frequency: Frequency) -> bytes:
    return b"onset_timestamp,peak_value,ramp_slope,persistence\n" + codec.rows(
        codec.stamps([ev.onset_timestamp for ev in events], frequency is Frequency.DAILY), b",",
        codec.fixed6([ev.peak_value for ev in events]), b",",
        codec.fixed6([ev.ramp_slope for ev in events]), b",",
        codec.integers([ev.persistence for ev in events]), b"\n",
    )


def _restrict_dates(returns: ReturnSeries, from_date, to_date) -> ReturnSeries:
    if from_date is None and to_date is None:
        return returns
    days, bounds = returns.days
    first = 0 if from_date is None else np.searchsorted(days, np.datetime64(from_date, "D"))
    end = len(days)
    if to_date is not None:
        end = np.searchsorted(days, np.datetime64(to_date, "D"), side="right")
    if first >= end:
        raise EmptyInput("no observations in requested date range")
    kept = slice(bounds[first], bounds[end])
    return replace(returns, timestamps=returns.timestamps[kept], values=returns.values[kept])


def _spectrum_one(config: RunConfig, entry: InstrumentEntry, from_date, to_date) -> tuple:
    returns = _restrict_dates(_load_returns(config, entry), from_date, to_date)
    seq_spec = _resolve_sequence(config, returns)
    binning = _spectrum_binning(config, returns, seq_spec.base_length)
    table = spectra_for_series(returns, seq_spec, binning)
    events = detect_events(
        table,
        threshold=config.theta,
        min_persistence=config.min_persistence,
        baseline=config.baseline,
    )
    # The monthly and events bytes are rendered before any file is
    # written; the spectrum's blocks are rendered as they are written.
    out_dir = Path(config.out_dir)
    return f"{entry.id}: sequences={len(table)} events={len(events)}", [
        (out_dir / f"{entry.id}_spectrum.csv", _spectrum_csv(table, returns.frequency)),
        (out_dir / f"{entry.id}_monthly.csv", _monthly_csv(table)),
        (out_dir / f"{entry.id}_events.csv", _events_csv(events, returns.frequency)),
    ]


def cmd_spectrum(args: argparse.Namespace) -> int:
    config = _load(args)
    for flag, value in (("--from-date", args.from_date), ("--to-date", args.to_date)):
        if value is not None:
            IsDate().check(value, flag)
    return _each_instrument(config, _spectrum_one, from_date=args.from_date, to_date=args.to_date)


def _pmf_csv(dist: BinnedDistribution) -> bytes:
    edges = codec.fixed6(dist.edges())
    return b"bin_lo,bin_hi,mass\n" + codec.rows(
        edges[:-1], b",", edges[1:], b",", codec.fixed6(dist.masses), b"\n"
    )


def _pmf_one(config: RunConfig, entry: InstrumentEntry, day, span_days: int) -> tuple:
    returns = _load_returns(config, entry)
    snapshot = pmf_snapshot(returns, day, preceding_days=span_days, n_bins=config.bins)
    out_dir = Path(config.out_dir)
    line = f"{entry.id}: H(day)={snapshot.day_entropy:.6f} H(span)={snapshot.span_entropy:.6f}"
    return line, [
        (out_dir / f"{entry.id}_pmf_day.csv", _pmf_csv(snapshot.day_dist)),
        (out_dir / f"{entry.id}_pmf_span.csv", _pmf_csv(snapshot.span_dist)),
    ]


def cmd_pmf(args: argparse.Namespace) -> int:
    config = _load(args)
    IsDate().check(args.day, "--day")
    AtLeast(0).check(args.span_days, "--span-days")
    entry = config.instruments[0]
    if args.instrument is not None:
        entry = next((e for e in config.instruments if e.id == args.instrument), None)
        if entry is None:
            raise ValueError(f"instrument {args.instrument!r} not in config")
    return _each_instrument(
        replace(config, instruments=[entry]), _pmf_one, day=args.day, span_days=args.span_days
    )


def _parse_shock(text: str) -> Shock:
    try:
        day, magnitude, shape = text.split(":")
        return Shock(int(day), float(magnitude), ShockShape(shape))
    except ValueError:
        shapes = ", ".join(s.value for s in ShockShape)
        raise ValueError(
            f"--shock: expected DAY:MAGNITUDE:SHAPE with SHAPE one of {shapes}, got {text!r}"
        ) from None


def cmd_synth(args: argparse.Namespace) -> int:
    AtLeast(0).check(args.seed, "--seed")
    AtLeast(1).check(args.days, "--days")
    AtLeast(1).check(args.bars_per_day, "--bars-per-day")
    IsFileName().check(args.id, "--id")
    spec = SynthSpec(
        seed=args.seed,
        n_days=args.days,
        bars_per_day=args.bars_per_day,
        drift=args.mu,
        volatility=args.sigma,
        shocks=tuple(_parse_shock(s) for s in args.shock),
        instrument_id=args.id,
    )
    series, injections = generate(spec)
    out_dir = Path(args.out)
    price_path = out_dir / f"{args.id}.csv"
    log = b"timestamp,magnitude_sigma,shape\n" + codec.rows(
        codec.stamps([rec.timestamp for rec in injections], series.frequency is Frequency.DAILY),
        b",",
        codec.fixed6([rec.magnitude_sigma for rec in injections]), b",",
        codec.text([rec.shape.value for rec in injections]), b"\n",
    )
    _write([(price_path, serialize_csv(series)), (out_dir / f"{args.id}_injections.csv", log)])
    _say(f"{args.id}: bars={len(series)} shocks={len(injections)} -> {price_path}")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors end in one ``error: <message>`` line
    on stderr and exit 2, without the usage block; ``--help`` is unchanged.
    ``add_subparsers`` gives every sub-parser this class too."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}\n")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="JSON run config")
    sub.add_argument("--out", dest="out_dir", help="output directory (overrides config)")
    sub.add_argument("--dt-col", help="datetime column name (overrides config)")
    sub.add_argument("--close-col", help="close column name (overrides config)")
    sub.add_argument("--bins", type=int, help="bin count (overrides config)")
    sub.add_argument("--theta", type=float, help="detector threshold (overrides config)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call; parsing leaves it unchanged."""
    parser = _Parser(
        prog="entroscope",
        description="Entropy-based market analysis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize and clean raw price CSVs")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("compare", help="before/after entropy and dispersion table")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("spectrum", help="expanding-window entropy spectra and events")
    _add_common(p)
    p.add_argument("--from-date", help="restrict analysis to dates >= this (YYYY-MM-DD)")
    p.add_argument("--to-date", help="restrict analysis to dates <= this (YYYY-MM-DD)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("pmf", help="single-day vs span distribution snapshots")
    _add_common(p)
    p.add_argument("--day", required=True, help="target date YYYY-MM-DD")
    p.add_argument("--span-days", type=int, default=14, help="preceding trading days in the span")
    p.add_argument("--instrument", help="instrument id from the config (default: first)")
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("synth", help="generate a synthetic market fixture")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--days", type=int, default=20)
    p.add_argument("--bars-per-day", type=int, default=78)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=0.001)
    p.add_argument("--shock", action="append", default=[], help="DAY:MAGNITUDE:SHAPE")
    p.add_argument("--id", default="synth")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
