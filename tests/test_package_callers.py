"""Every function of src/oja is reached from src/oja, not only from the tests.

A function, method or property that only a test calls is code the tool never
runs: this stdlib-`ast` check, like `test_imports_used.py`, finds it.  A
definition counts as reached when its name is read somewhere in the package
outside its own body, as a bare name (`rank(rows)`) or as an attribute
(`report.passed`).  Dunder methods are left out: the interpreter calls them.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "oja"


def _definitions(tree: ast.Module):
    """Each function, method and property defined in `tree`, dunders aside."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef)
                and not (node.name.startswith("__") and node.name.endswith("__"))):
            yield node


def _reads(tree: ast.AST) -> list[tuple[str, ast.AST]]:
    """Each name read in `tree`, as a bare name or an attribute, with its node."""
    return [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Name | ast.Attribute) and isinstance(node.ctx, ast.Load)]


def _unreached(sources: dict[str, str]) -> list[str]:
    """`module:line name` for each definition no read outside its own body names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = [(name, node) for tree in trees.values() for name, node in _reads(tree)]
    unreached = []
    for module, tree in trees.items():
        for definition in _definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(name == definition.name and id(node) not in inside
                       for name, node in reads):
                unreached.append(f"{module}:{definition.lineno} {definition.name}")
    return unreached


def test_every_function_is_reached_from_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert _unreached(sources) == []


def test_a_function_only_its_own_body_names_is_reported():
    source = ("def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class C:\n    @property\n    def shown(self):\n        return used()\n"
              "    def hidden(self):\n        return self.shown\n"
              "    def __len__(self):\n        return 0\n")
    assert _unreached({"m.py": source}) == ["m.py:3 recursive", "m.py:9 hidden"]
