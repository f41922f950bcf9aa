"""Every name the layer tracer wraps must exist in the package.

`perfbench/tracer.py` looks up each `SPANNED` function and `COUNTED` method
by name when it installs its wrappers, so a renamed or deleted one breaks
`perfbench/run.py --trace 1`.  A spanned function that the package no longer
calls would leave its traced counts at zero.  The tracer is loaded from its
file without calling `install()`.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
# Spanned names that only the tests call.
TEST_ONLY = {"jacobian.trace_functional"}


def _tracer():
    spec = importlib.util.spec_from_file_location("oja_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _callable(layer: str, *path: str) -> bool:
    obj = importlib.import_module(f"oja.{layer}")
    for name in path:
        obj = getattr(obj, name, None)
    return callable(obj)


def test_every_traced_name_exists():
    tracer = _tracer()
    missing = [f"{layer}.{name}" for layer, names in tracer.SPANNED.items()
               for name in names if not _callable(layer, name)]
    missing += [".".join(key) for key in tracer.COUNTED.values() if not _callable(*key)]
    assert not missing


def _package_calls() -> set[str]:
    """Each `name` called as `name(...)` or `layer.name(...)` in src/oja, outside
    a top-level definition of that same name (recursion is not a caller)."""
    calls = set()
    for path in (ROOT / "src" / "oja").glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    called = func.id
                elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    called = f"{func.value.id}.{func.attr}"
                else:
                    continue
                if called.rpartition(".")[2] != getattr(top, "name", None):
                    calls.add(called)
    return calls


def test_every_traced_name_keeps_a_package_caller():
    calls = _package_calls()
    uncalled = [f"{layer}.{name}" for layer, names in _tracer().SPANNED.items()
                for name in names if f"{layer}.{name}" not in TEST_ONLY
                and name not in calls and f"{layer}.{name}" not in calls]
    assert not uncalled
