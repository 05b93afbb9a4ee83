"""The package namespace, its settings, its command-line flags, its error
hierarchy, its imports and the README's Quick start and Python example."""
import argparse
import ast
import dataclasses
import inspect
import json
import re
import shlex
from enum import Enum
from pathlib import Path

import numpy as np

import entroscope
from entroscope.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(entroscope.__file__).resolve().parent

# (module, name) pairs that a module imports and never reads, each for a
# reason: benchmark/tracing.py wraps ``cumulative.window_entropy`` by that
# name.
UNREAD_IMPORTS = {("cumulative", "window_entropy")}

PUBLIC = {
    "AmbiguousTimestampFormat", "BeforeAfterComparison", "BinnedDistribution", "BinningSpec",
    "DegenerateDenominator", "Diagnostics", "EmptyInput", "EmptyWindow", "EntropySpectrum",
    "EventSignature", "Frequency", "InjectionRecord", "InsufficientBaseline", "MalformedCsv",
    "OutOfRange", "PipelineError", "PmfSnapshot", "PriceSeries", "ReturnKind",
    "ReturnSeries", "SeriesTooShort", "Shock", "ShockShape", "SpectrumTable", "SummaryStats",
    "SynthSpec", "TooShort", "WindowSequenceSpec", "aggregate_to_daily",
    "bin_returns", "bracket_windows", "compare_windows",
    "dedup_closed_market", "detect_events", "generate", "log_returns", "nominal_returns",
    "parse_csv", "parse_csv_file", "pct_difference", "pmf_snapshot", "serialize_csv",
    "shannon_entropy", "spectra_for_series", "summarize_values",
    "velleman_bins", "window_bounds", "window_entropy",
}

# Every setting of the library: each public enum's members, each public
# dataclass's defaulted fields and each public function's defaulted
# parameters, with their defaults. A change that adds, removes or changes
# one changes this dict too.
SETTINGS = {
    "BeforeAfterComparison": {},
    "BinnedDistribution": {"clamped_count": 0},
    "BinningSpec": {"lo": None, "hi": None},
    "Diagnostics": {"dropped": 0, "removed": 0},
    "EntropySpectrum": {},
    "EventSignature": {},
    "Frequency": ["DAILY", "FIVE_MINUTE"],
    "InjectionRecord": {},
    "PmfSnapshot": {},
    "PriceSeries": {},
    "ReturnKind": ["NOMINAL", "LOG"],
    "ReturnSeries": {},
    "Shock": {},
    "ShockShape": ["SINGLE_BAR", "DISPERSED_DAY"],
    "SpectrumTable": {},
    "SummaryStats": {},
    "SynthSpec": {"drift": 0.0, "volatility": 0.001, "shocks": (), "instrument_id": "synth"},
    "WindowSequenceSpec": {"increment": 1, "steps": 0, "stride": 1, "anchor_mode": "grow-right"},
    "aggregate_to_daily": {},
    "bin_returns": {},
    "bracket_windows": {},
    "compare_windows": {"binning": None},
    "dedup_closed_market": {"run_length": 6},
    "detect_events": {"threshold": 3.0, "min_persistence": 2, "baseline": 8},
    "generate": {},
    "log_returns": {},
    "nominal_returns": {},
    "parse_csv": {"dt_col": "timestamp", "close_col": "close"},
    "parse_csv_file": {"dt_col": "timestamp", "close_col": "close"},
    "pct_difference": {},
    "pmf_snapshot": {"preceding_days": 14, "n_bins": None},
    "serialize_csv": {},
    "shannon_entropy": {},
    "spectra_for_series": {},
    "summarize_values": {},
    "velleman_bins": {},
    "window_bounds": {},
    "window_entropy": {},
}

# The options of each command of the command-line parser, but -h/--help. A
# change that adds or removes a flag changes this dict too; the config is
# the one source of every value it has a key for.
FLAGS = {
    "ingest": {"--config", "--out"},
    "compare": {"--config", "--out"},
    "spectrum": {"--config", "--out", "--from-date", "--to-date"},
    "pmf": {"--config", "--out", "--day", "--span-days", "--instrument"},
    "synth": {"--bars-per-day", "--days", "--id", "--mu", "--out", "--seed", "--shock", "--sigma"},
}


def _settings(value):
    """An enum's member names, a dataclass's defaulted fields or a function's
    defaulted parameters, with their defaults; None for anything else."""
    if isinstance(value, type) and issubclass(value, Enum):
        return [member.name for member in value]
    if dataclasses.is_dataclass(value):
        return {
            f.name: f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            for f in dataclasses.fields(value)
            if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
        }
    if inspect.isfunction(value):
        parameters = inspect.signature(value).parameters.values()
        return {p.name: p.default for p in parameters if p.default is not p.empty}
    return None


def test_public_names_are_package_attributes():
    # Every public name besides the submodules, and no other.
    names = {
        name for name, value in vars(entroscope).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(PUBLIC) == 48 and names == PUBLIC


def test_public_settings_are_pinned():
    found = {name: _settings(getattr(entroscope, name)) for name in PUBLIC}
    assert {name: s for name, s in found.items() if s is not None} == SETTINGS


def test_command_flags_are_pinned():
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    found = {name: {option for action in parser._actions for option in action.option_strings}
             for name, parser in commands.items()}
    assert found == {name: flags | {"-h", "--help"} for name, flags in FLAGS.items()}


def test_insufficient_data_errors_are_too_short():
    # The CLI exits 3 on TooShort and its subclasses, by type alone.
    assert all(issubclass(error, entroscope.TooShort)
               for error in (entroscope.SeriesTooShort, entroscope.InsufficientBaseline))


def test_modules_read_every_name_they_import():
    # An unused-import check: a name that a module imports and never reads
    # fails, but for UNREAD_IMPORTS. ``__init__`` imports to re-export, and
    # ``from __future__`` imports bind no name to read.
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread |= {(path.stem, name) for name in imported - read}
    assert unread == UNREAD_IMPORTS


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    spectra, events, injection = scope["spectra"], scope["events"], scope["injections"][0]
    assert len(events) == 1
    first, last = scope["covered"]
    assert first <= injection.timestamp <= last
    starts, ends = scope["starts"], scope["ends"]
    assert starts.shape == spectra.values.shape == (len(spectra), 4)
    assert np.array_equal(ends[0] - starts[0], spectra.spec.lengths)


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    # The Quick start's bash block, in an empty directory: its heredoc
    # writes run.json, and each entroscope line goes through ``main``.
    quick_start = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = re.search(r"```bash\n(.*?)```", quick_start, re.S).group(1)
    block = block.replace("\\\n", " ")
    monkeypatch.chdir(tmp_path)
    for name, text in re.findall(r"cat > (\S+) <<'EOF'\n(.*?\n)EOF\n", block, re.S):
        Path(name).write_text(text, encoding="utf-8")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("entroscope ")]
    assert [argv[0] for argv in commands] == ["synth", "ingest", "compare", "spectrum", "pmf"]
    for argv in commands:
        assert main(argv) == 0, argv

    # The one event's onset sequence holds the injection.
    events = Path("out/demo_events.csv").read_text(encoding="utf-8").splitlines()[1:]
    injections = Path("fixtures/demo_injections.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(events) == 1 and len(injections) == 1
    onset, injected = (np.datetime64(row.split(",")[0].replace(" ", "T"))
                       for row in (events[0], injections[0]))
    config = json.loads(Path("run.json").read_text(encoding="utf-8"))
    path = config["instruments"][0]["path"]
    returns = entroscope.log_returns(
        entroscope.parse_csv_file(path, entroscope.Frequency.FIVE_MINUTE, "demo")[0])
    starts, ends = entroscope.window_bounds(
        len(returns), entroscope.WindowSequenceSpec(**config["sequence"]))
    (j,) = np.flatnonzero(returns.timestamps[starts[:, -1]] == onset)
    assert returns.timestamps[starts[j, -1]] <= injected <= returns.timestamps[ends[j, -1] - 1]
