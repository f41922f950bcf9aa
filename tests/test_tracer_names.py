"""Every name the layer tracer wraps must exist in the package.

`perfbench/tracer.py` looks up each `SPANNED` function and `COUNTED` method
by name when it installs its wrappers, so a renamed or deleted one breaks
`perfbench/run.py --trace 1`.  The tracer is loaded from its file without
calling `install()`.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
