"""sha256 digests of the CLI's stdout and stderr over the whole command matrix.

The goldens pin 17 transcripts byte for byte; this pins 429 more by
digest, run in-process through ``oja.cli.main``: every ``verify`` and
``graph`` form, ``verify --row`` for each catalog row, the
``transpose``/``milnor``/``symmetry``/``jacobian`` forms over every catalog
variant, ``orbifold`` in text and ``--json`` in plain, ``--structure`` and
``--pairing`` mode over every graph node, and a set of error cases.  A
refactor that keeps every output byte-identical keeps this file passing.

After a deliberate change of output, regenerate the digest file with

    PYTHONPATH=src python tests/test_query_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

DIGESTS = Path(__file__).parent / "golden" / "query_digests.json"

ERROR_CASES = [
    ["transpose", "x1^2+x1*x2"],
    ["milnor", ""],
    ["milnor", "x1^-1"],
    ["milnor", "x^2*y"],
    ["jacobian", "x1^2+x2^2+x1*x2^2"],
    ["symmetry", "x1^2+y^3"],
    ["orbifold", "x1^4+x2^3+x3^3", "--group", "1/4,0,0"],
    ["orbifold", "x1^4+x2^3+x3^3", "--group", "1/2,0"],
    ["verify", "--row", "99"],
    ["--catalog", "no/such/catalog.json", "verify", "--all"],
    ["--catalog", "no/such/catalog.json", "graph"],
    ["orbifold", "x1^3+x2^3+x3^3", "--group", "1/3,1/3,1/3"],
]


def _commands() -> list[list[str]]:
    from oja.catalog import load_catalog

    data = load_catalog().data
    commands: list[list[str]] = []
    for entry in data["entries"]:
        for f in entry["variants"]:
            commands += [["transpose", f], ["--json", "transpose", f],
                         ["milnor", f], ["--json", "milnor", f],
                         ["symmetry", f], ["symmetry", f, "--sl"], ["--json", "symmetry", f],
                         ["jacobian", f], ["jacobian", f, "--basis"],
                         ["jacobian", f, "--hessian"], ["jacobian", f, "--trace"],
                         ["--json", "jacobian", f]]
    for node in data["graph_nodes"]:
        f, generator = node["f"], node["generator"] or "0,0,0"
        for mode in ([], ["--structure"], ["--pairing"]):
            commands += [["orbifold", f, "--group", generator, *mode],
                         ["--json", "orbifold", f, "--group", generator, *mode]]
    for row in data["rows"]:
        commands.append(["verify", "--row", str(row["index"])])
    for search in ([], ["--search"]):
        commands += [["verify", "--all", *search], ["--json", "verify", "--all", *search]]
    commands += [["graph"], ["graph", "--dot"], ["--json", "graph"]]
    return commands + ERROR_CASES


def _digest(argv: list[str]) -> dict:
    from oja.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def test_every_command_prints_what_the_digest_file_records():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert [case["argv"] for case in expected] == _commands()
    changed = [case["argv"] for case in expected if _digest(case["argv"]) != case]
    assert not changed


if __name__ == "__main__":
    lines = (json.dumps(_digest(argv)) for argv in _commands())  # one command a line
    DIGESTS.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
