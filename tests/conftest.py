"""Let the command-line tests' child interpreters import `oja` from src/.

`pythonpath` in pyproject.toml covers this process; the subprocesses that
run `python -m oja.cli` see only the environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
