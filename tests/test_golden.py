"""Byte-for-byte CLI transcripts, run in-process through ``oja.cli.main``.

Each file under ``tests/golden`` holds the exact stdout of one command, and
each case also pins the exit code.  ``verify --row 8`` prints irrational
witness scalars such as ``2/3*z^2 - 1/3*z^6``, so it pins
``CycScalar.__str__`` on the power basis.  The JSON forms of ``verify --all
--search`` and ``graph`` pin the search witnesses, the certification log and
the fingerprints.  No test writes these files.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from oja.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("transpose", ["transpose", "x2^3+x1^5*x2+x3^2"], 0),
    ("symmetry", ["symmetry", "x1^4+x2^3+x3^3"], 0),
    ("symmetry_sl", ["symmetry", "x1^4+x2^3+x3^3", "--sl"], 0),
    ("milnor", ["milnor", "x^8+y^3+z^2"], 0),
    ("jacobian", ["jacobian", "x1^8+x2^3+x3^2"], 0),
    ("jacobian_json", ["--json", "jacobian", "x1^8+x2^3+x3^2"], 0),
    ("orbifold_json", ["--json", "orbifold", "x1^8+x2^3+x3^2", "--group", "1/2,0,1/2"], 0),
    ("orbifold_structure",
     ["orbifold", "x1^4+x2^3+x3^3", "--group", "0,2/3,1/3", "--structure"], 0),
    ("orbifold_pairing",
     ["orbifold", "x1^4+x2^3+x3^3", "--group", "0,2/3,1/3", "--pairing"], 0),
    ("verify_row6", ["verify", "--row", "6"], 0),
    ("verify_row8", ["verify", "--row", "8"], 0),
    ("verify_row19_json", ["--json", "verify", "--row", "19"], 1),
    ("verify_all_json", ["--json", "verify", "--all"], 1),
    ("verify_all_search_json", ["--json", "verify", "--all", "--search"], 1),
    ("graph", ["graph"], 0),
    ("graph_dot", ["graph", "--dot"], 0),
    ("graph_json", ["--json", "graph"], 0),
]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[case[0] for case in CASES])
def test_cli_output_matches_golden_transcript(name, argv, code, capsys):
    assert main(argv) == code
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
