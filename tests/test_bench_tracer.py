"""The benchmark tracer wraps pathforce functions by name; each name must resolve."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_names():
    """The (module, function) pairs of the tracer's TRACED tuple, read without
    importing the benchmark."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TRACED")


def test_traced_names_resolve():
    names = traced_names()
    assert names
    missing = [f"pathforce.{module}.{name}" for module, name in names
               if not callable(getattr(importlib.import_module(f"pathforce.{module}"), name, None))]
    assert missing == []
