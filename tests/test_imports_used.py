"""Every name a module of src/oja imports is used in that module.

The package carries no linter, so this stdlib-`ast` check stands in for the
unused-import rule: a deletion that leaves an import behind fails here.  A
use is any name the module reads, annotations included; the modules' `from
__future__ import annotations` keeps annotations in the tree, and a quoted
annotation is parsed as well.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "oja"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with its line; `__future__` imports bind none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            yield node.returns


def _read(tree: ast.AST) -> set[str]:
    """The names read in `tree`, those in quoted annotations included."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _read(ast.parse(node.value, mode="eval"))
    return read


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read(tree)
    assert [f"{name} (line {line})" for name, line in _imported(tree).items()
            if name not in read] == []


def test_an_unused_import_is_reported_and_an_annotation_counts():
    tree = ast.parse("from typing import Mapping, Sequence\nimport os.path\n"
                     "def f(x: 'Mapping[str, int]') -> None: ...\n")
    read = _read(tree)
    assert sorted(name for name in _imported(tree) if name not in read) == ["Sequence", "os"]
