import importlib
from pathlib import Path

BENCHMARK = Path(__file__).parents[1] / "benchmark"


def test_traced_names_resolve_to_callables(monkeypatch):
    # The traced benchmark swaps wrappers in with getattr on these module
    # globals; a deleted or renamed name would end a traced run early.
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    assert tracing.WRAPPED
    for module_name, attribute, *_ in tracing.WRAPPED:
        module = importlib.import_module(f"entroscope.{module_name}")
        assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute}"
