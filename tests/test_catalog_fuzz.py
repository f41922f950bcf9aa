"""Fuzz `--catalog` files: a malformed catalog must never end in a traceback.

Each example applies one to three wrong-type or deletion mutations to the
bundled catalog document and runs `verify --row 2` and `graph` on the result
in-process.  Each exit code must be 0, 1 or 2; an exception escaping `main`
would be a traceback (exit 1) on the command line.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from oja.catalog import _default_data  # noqa: E402
from oja.cli import main  # noqa: E402

DELETE = object()
WRONG_TYPES = [None, 0, -1, 2.5, True, "", "x1^", [], {}, [[]]]


def _paths(node, prefix: tuple = ()):
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


PATHS = [path for path in _paths(_default_data()) if path]
mutations = st.lists(st.tuples(st.sampled_from(PATHS),
                               st.sampled_from([DELETE, *WRONG_TYPES])),
                     min_size=1, max_size=3)


def _mutate(data: dict, path: tuple, value) -> None:
    parent = data
    for key in path[:-1]:
        try:
            parent = parent[key]
        except (IndexError, KeyError, TypeError):
            return  # an earlier mutation removed or replaced this path
    try:
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    except (IndexError, KeyError, TypeError):
        pass


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations)
def test_a_mutated_catalog_exits_cleanly(tmp_path: Path, changes):
    data = _default_data()
    for path, value in changes:
        _mutate(data, path, value)
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(data))
    for command in (["verify", "--row", "2"], ["graph"]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--catalog", str(catalog), *command])
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
