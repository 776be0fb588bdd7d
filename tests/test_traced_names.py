"""The benchmark's tracer (`perfbench/tracing.py`) wraps padvio functions by
their "module.function" names; a rename or deletion breaks every traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_padvio_function(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    missing = []
    for name in tracing.TRACED:
        module_name, function_name = name.split(".")
        if not callable(getattr(importlib.import_module(f"padvio.{module_name}"), function_name, None)):
            missing.append(name)
    assert tracing.TRACED
    assert missing == []
