"""Let the command-line tests' child interpreters import `oja` from src/, and
keep every interpreter of a test run from writing bytecode into the tree.

`pythonpath` in pyproject.toml covers this process; the subprocesses that
run `python -m oja.cli` see only the environment.  A `src/oja/__pycache__`
left behind would be read by every later run that means to time compilation.
"""

import os
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
