"""End-to-end tests for the `oja` command line, run as subprocesses."""

from __future__ import annotations

import ast
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Callable

import pytest

from oja.catalog import load_catalog


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "oja.cli", *argv],
                          capture_output=True, text=True)


def _lines(result: subprocess.CompletedProcess) -> list[str]:
    return result.stdout.splitlines()


# --- transpose ----------------------------------------------------------------


def test_transpose_swaps_the_exponent_matrix():
    result = _run("transpose", "x1^3*x2+x2^3+x3^2")
    assert result.returncode == 0
    assert result.stdout == "x1*x2^3 + x1^3 + x3^2\n"


def test_transpose_is_an_involution_on_the_command_line():
    once = _run("transpose", "x1^5+x1*x2^3+x3^2").stdout.strip()
    twice = _run("transpose", once).stdout.strip()
    assert twice == "x1^5 + x1*x2^3 + x3^2"


def test_transpose_accepts_alias_variable_names():
    inferred = _run("transpose", "x^3*y+y^3+z^2")
    explicit = _run("transpose", "x^3*y+y^3+z^2", "--vars", "x,y,z")
    assert inferred.returncode == explicit.returncode == 0
    assert inferred.stdout == explicit.stdout == "x*y^3 + x^3 + z^2\n"


@pytest.mark.parametrize("poly, spec", [("2^2+b^3", "2,b"), ("x1^2+x2^3", "x1,x2,q+r"),
                                        ("x1^2+x2^3", "")])
def test_transpose_rejects_variable_names_the_parser_cannot_read(poly: str, spec: str):
    result = _run("transpose", poly, "--vars", spec)
    assert result.returncode == 2
    assert result.stderr == f"error: bad variable list '{spec}'\n"


def test_transpose_json_reports_the_weight_system():
    result = _run("--json", "transpose", "x1^3*x2+x2^3+x3^2")
    data = json.loads(result.stdout)
    assert data["polynomial"] == "x1*x2^3 + x1^3 + x3^2"
    assert data["variables"] == ["x1", "x2", "x3"]
    assert data["weights"] == [6, 4, 9]
    assert data["degree"] == 18


# --- symmetry -----------------------------------------------------------------


def test_symmetry_reports_the_full_diagonal_group():
    result = _run("symmetry", "x1^4+x2^3+x3^3")
    assert result.returncode == 0
    assert _lines(result) == [
        "order 36",
        "generator (1/4,0,0)",
        "generator (0,1/3,0)",
        "generator (0,0,1/3)",
    ]


def test_symmetry_sl_picks_the_integral_age_subgroup():
    result = _run("symmetry", "x1^4+x2^3+x3^3", "--sl")
    assert result.returncode == 0
    assert _lines(result) == ["order 3", "generator (0,2/3,1/3)"]


def test_symmetry_sl_of_order_two():
    result = _run("symmetry", "x1^8+x2^3+x3^2", "--sl")
    assert _lines(result) == ["order 2", "generator (1/2,0,1/2)"]


def test_symmetry_sl_can_be_trivial():
    result = _run("symmetry", "x3^4+x1^3+x3*x2^2", "--sl")
    assert result.returncode == 0
    assert _lines(result) == ["order 1"]


def test_symmetry_sl_of_a_non_cyclic_group_shows_greedy_generators():
    """None of G_f's generators lies in the SL subgroup and no element has
    order 16, so the subgroup carries the greedy closure sweep's generators."""
    result = _run("symmetry", "x1^4+x2^4+x3^4", "--sl")
    assert result.returncode == 0
    assert _lines(result) == ["order 16", "generator (0,1/4,3/4)", "generator (1/4,0,3/4)"]


def test_symmetry_json_lists_all_elements():
    result = _run("symmetry", "x1^4+x2^3+x3^3", "--sl", "--json")
    data = json.loads(result.stdout)
    assert data["order"] == 3
    assert data["generators"] == ["0,2/3,1/3"]
    assert sorted(data["elements"]) == ["0,0,0", "0,1/3,2/3", "0,2/3,1/3"]


# --- milnor ---------------------------------------------------------------------


@pytest.mark.parametrize("poly, mu", [
    ("x1^8+x2^3+x3^2", 14),
    ("x^4+y^3+x*z^2", 10),
    ("x1^3*x2+x2^3+x1*x3^2", 11),
    ("x1^5+x2^3+x1*x3^2", 12),
    ("x1^4+x2^2*x3+x1*x3^2", 11),
    ("x^4+y^3+z^3", 12),
    ("x^5+y^4+z^2", 12),
])
def test_milnor_numbers(poly: str, mu: int):
    result = _run("milnor", poly)
    assert result.returncode == 0
    assert result.stdout == f"{mu}\n"


def test_milnor_json():
    data = json.loads(_run("milnor", "x1^8+x2^3+x3^2", "--json").stdout)
    assert data == {"milnor": 14, "polynomial": "x1^8 + x2^3 + x3^2"}


# --- jacobian -------------------------------------------------------------------


def test_jacobian_summary():
    result = _run("jacobian", "x1^8+x2^3+x3^2")
    assert result.returncode == 0
    assert _lines(result) == [
        "dimension 14",
        "weights 3,8,12",
        "degree 24",
        "socle x1^6*x2",
    ]


def test_jacobian_basis_lists_standard_monomials():
    result = _run("jacobian", "x1^8+x2^3+x3^2", "--basis")
    basis = _lines(result)
    assert len(basis) == 14
    assert basis[0] == "1"
    assert "x1^6*x2" in basis
    assert "x3" not in basis  # x3 dies on the quadratic term's derivative


def test_jacobian_hessian_normal_form():
    result = _run("jacobian", "x1^8+x2^3+x3^2", "--hessian")
    assert result.stdout == "672*x1^6*x2\n"


def test_jacobian_trace_of_the_socle():
    result = _run("jacobian", "x1^8+x2^3+x3^2", "--trace")
    assert _lines(result) == ["socle x1^6*x2", "trace 1/48"]


def test_jacobian_json():
    data = json.loads(_run("jacobian", "x1^8+x2^3+x3^2", "--json").stdout)
    assert data["dimension"] == 14
    assert data["weights"] == [3, 8, 12]
    assert data["degree"] == 24
    assert data["socle"] == "x1^6*x2"
    assert data["hessian"] == "672*x1^6*x2"
    assert data["trace"] == "1/48"
    assert len(data["basis"]) == 14


# --- orbifold -------------------------------------------------------------------


@pytest.mark.parametrize("argv, f", [
    (["jacobian", "x1"], "x1"),
    (["jacobian", "x1+x2^2"], "x2^2 + x1"),
    (["orbifold", "x1+x2^2", "--group", "0,0"], "x2^2 + x1"),
], ids=["jacobian-linear", "jacobian-with-a-linear-term", "orbifold"])
def test_a_zero_jacobian_algebra_exits_2_with_one_line(argv, f):
    result = _run(*argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: Jacobian algebra of {f} is zero: its Jacobian ideal contains 1\n"


def test_orbifold_reports_dimension_and_graded_basis():
    result = _run("orbifold", "x1^8+x2^3+x3^2", "--group", "1/2,0,1/2")
    lines = _lines(result)
    assert result.returncode == 0
    assert lines[0] == "dimension 10"
    assert len(lines) == 11
    assert "[1] v_(1/2,0,1/2)  degree 3/8  even" in lines
    assert "[x1^6*x2] v_(id)  degree 13/12  even" in lines


def test_orbifold_structure_contains_the_twisted_square():
    result = _run("orbifold", "x1^8+x2^3+x3^2", "--group", "1/2,0,1/2",
                  "--structure")
    lines = _lines(result)
    assert "[1] v_(1/2,0,1/2) * [1] v_(1/2,0,1/2) = (16) [x1^6] v_(id)" in lines
    assert "[1] v_(id) * [1] v_(id) = (1) [1] v_(id)" in lines


def test_orbifold_pairing_is_perfect():
    result = _run("orbifold", "x1^8+x2^3+x3^2", "--group", "1/2,0,1/2",
                  "--pairing")
    lines = _lines(result)
    assert len(lines) == 10  # one partner per basis vector
    assert "eta[[1] v_(id), [x1^6*x2] v_(id)] = 1/24" in lines
    assert "eta[[1] v_(1/2,0,1/2), [x2] v_(1/2,0,1/2)] = 2/3" in lines


def test_orbifold_accepts_repeated_group_flags():
    result = _run("orbifold", "x1^4+x2^3+x3^3",
                  "--group", "0,1/3,2/3", "--group", "0,2/3,1/3")
    assert result.returncode == 0
    assert _lines(result)[0] == "dimension 12"


def test_orbifold_rejects_a_non_sl_group():
    result = _run("orbifold", "x1^8+x2^3+x3^2", "--group", "1/2,0,0")
    assert result.returncode == 2
    assert "special-linear" in result.stderr


def test_orbifold_checks_the_generators_before_generating_the_group(monkeypatch, capsys):
    """Both SL conditions are characters, so the parsed generators decide them."""
    from oja.cli import main
    from oja.symmetry import SymmetryGroup

    def refuse(self, generators, arity):
        raise AssertionError("the group was generated before its generators were checked")

    monkeypatch.setattr(SymmetryGroup, "__init__", refuse)
    assert main(["orbifold", "x1^2+x2^2", "--group", "1/2,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: <1/2,0> is not a special-linear symmetry group "
                            "of x1^2 + x2^2\n")


def test_orbifold_rejects_wrong_arity_generators():
    result = _run("orbifold", "x1^8+x2^3+x3^2", "--group", "1/2,0")
    assert result.returncode == 2
    assert "expected 3" in result.stderr


def test_orbifold_json_carries_the_structure_tensor():
    result = _run("orbifold", "x1^8+x2^3+x3^2", "--group", "1/2,0,1/2", "--json")
    data = json.loads(result.stdout)
    assert data["dimension"] == 10
    assert len(data["basis"]) == 10
    assert len(data["gram"]) == 10
    assert {s["element"] for s in data["sectors"]} == {"0,0,0", "1/2,0,1/2"}
    assert all(len(entry) == 4 for entry in data["structure"])


# --- verify ---------------------------------------------------------------------


def test_verify_row_with_embedded_witness():
    result = _run("verify", "--row", "2")
    lines = _lines(result)
    assert result.returncode == 0
    assert lines[0] == "row 2: Q10 ~ E14 frobenius (embedded witness)"
    assert "  x3 -> (1/2*z^6) [1] v_(1/2,0,1/2)" in lines
    for name in ("relations", "surjective", "dimension", "pairings"):
        assert f"  {name}: ok" in lines


def test_verify_row_by_search():
    result = _run("verify", "--row", "2", "--search")
    assert result.returncode == 0
    assert _lines(result)[0] == "row 2: Q10 ~ E14 frobenius (ansatz search)"


def test_verify_algebra_only_row_exits_nonzero():
    result = _run("verify", "--row", "19")
    assert result.returncode == 1
    assert _lines(result)[0] == "row 19: W13 ~ S11 algebra (ansatz search)"


def test_verify_unknown_row_is_an_input_error():
    result = _run("verify", "--row", "99")
    assert result.returncode == 2
    assert "no catalog row 99" in result.stderr


def test_verify_needs_a_row_selection():
    result = _run("verify")
    assert result.returncode == 2


def test_verify_json_row():
    result = _run("--json", "verify", "--row", "3")
    data = json.loads(result.stdout)
    assert result.returncode == 0
    assert data["passed"] is True
    assert data["frobenius"] == data["total"] == 1
    row = data["rows"][0]
    assert row["pair"] == ["Q11", "Z13"]
    assert row["certificate"]["level"] == "frobenius"
    assert row["certificate"]["report"]["passed"] is True


def test_verify_accepts_a_catalog_file(tmp_path: Path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(load_catalog().data, indent=2))
    before = _run("--catalog", str(path), "verify", "--row", "2")
    after = _run("verify", "--row", "2", "--catalog", str(path))
    assert before.returncode == after.returncode == 0
    assert before.stdout == after.stdout


def test_verify_all_lists_a_failed_witness_as_not_certified(tmp_path: Path):
    """A supplied witness that does not verify is level "failed", not "algebra"."""
    data = load_catalog().data
    _set_witness_term(1, 1, 0, "2")(data)  # row 2: x2 -> 2*x2
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(data))
    result = _run("--catalog", str(path), "verify", "--all")
    lines = _lines(result)
    assert result.returncode == 1
    assert lines[1].startswith("row 2: Q10 ~ E14 failed (embedded witness)")
    assert lines[-3:] == ["17/20 rows certified at Frobenius level",
                          "algebra level only: 19 20", "not certified: 2"]


def _keep_only_version(data: dict) -> None:
    for key in set(data) - {"version"}:
        del data[key]


def _set_witness_term(index: int, image: int, slot: int, value) -> Callable[[dict], None]:
    def mutate(data: dict) -> None:
        data["rows"][index]["witness"]["images"][image][0][slot] = value
    return mutate


def _set_witness_image(index: int, image: int, terms: list) -> Callable[[dict], None]:
    def mutate(data: dict) -> None:
        data["rows"][index]["witness"]["images"][image] = terms
    return mutate


def _drop_witness_image(index: int) -> Callable[[dict], None]:
    def mutate(data: dict) -> None:
        data["rows"][index]["witness"]["images"].pop()
    return mutate


def _set_generator(section: str, index: int, value) -> Callable[[dict], None]:
    def mutate(data: dict) -> None:
        data[section][index]["generator"] = value
    return mutate


def _set_row(field: str, index: int, value) -> Callable[[dict], None]:
    def mutate(data: dict) -> None:
        data["rows"][index][field] = value
    return mutate


def _set_node(field: str, index: int, value) -> Callable[[dict], None]:
    def mutate(data: dict) -> None:
        data["graph_nodes"][index][field] = value
    return mutate


def _set_variant(index: int, value: str) -> Callable[[dict], None]:
    def mutate(data: dict) -> None:
        data["entries"][index]["variants"][0] = value
    return mutate


_TRUNCATED = "x1^4+x2^3+"  # position 10 ends the text where a term should start
# With x1^4+x2^4+x3^2, generator 1/4,3/4,0 is an SL symmetry of order 4: out of scope
_OUT_OF_SCOPE = ("unsupported group of order 4: only the trivial group and cyclic groups "
                 "of order 2 or 3 are in scope\n")
# Row 2's target and graph node B are both x1^8+x2^3+x3^2, where 1/2,0,0 has age 1/2
_NOT_SL = "<1/2,0,0> is not a special-linear symmetry group of x1^8 + x2^3 + x3^2\n"

# Each case: a change to the bundled catalog (a string: the whole file's
# text; None: the catalog path is a directory), and the message expected on
# stderr under `verify --row 2`, `verify --all --search` and `graph` alike: a
# substring, or the whole line with its newline.  Position 1 holds row 2,
# whose group is <(1/2,0,1/2)>, and graph node B; position 0 holds entry E12;
# position 5 holds row 6, which `graph` never certifies.
_BROKEN_CATALOGS = {
    "missing-sections": (_keep_only_version, "error: invalid catalog: missing key 'entries'\n"),
    "document-not-an-object": (
        "[]", "error: invalid catalog: catalog document is a list, not an object\n"),
    "version-a-float": (lambda data: data.update(version=1.0),
                        "error: invalid catalog: version is a number, not an integer\n"),
    "version-a-bool": (lambda data: data.update(version=True),
                       "error: invalid catalog: version is true or false, not an integer\n"),
    "term-not-a-list": (
        _set_witness_image(1, 0, [5]),
        "error: invalid catalog: row 2: witness term 5 is not three strings (scalar, "
        "monomial, sector)\n"),
    "scalar-not-a-string": (
        _set_witness_term(1, 0, 0, 1),
        "error: invalid catalog: row 2: witness term [1, 'x1^2', '0,0,0'] is not three "
        "strings (scalar, monomial, sector)\n"),
    "scalar-divides-by-zero": (
        _set_witness_term(1, 0, 0, "1/0"),
        "error: invalid catalog: row 2: witness scalar '1/0' is not a rational number or "
        "i, sqrt2 or sqrt3 over an integer\n"),
    "term-not-three-strings": (
        _set_witness_image(1, 0, [["1", "x1^2"]]),
        "error: invalid catalog: row 2: witness term ['1', 'x1^2'] is not three "
        "strings (scalar, monomial, sector)\n"),
    "wrong-number-of-images": (_drop_witness_image(1),
                               "error: invalid catalog: row 2: witness needs 3 images\n"),
    "row-generator-not-a-string": (
        _set_generator("rows", 1, ["1/2", "0", "1/2"]),
        "error: invalid catalog: row 2: generator is a list, not a string\n"),
    "node-generator-not-a-string": (
        _set_generator("graph_nodes", 1, ["1/2", "0", "1/2"]),
        "error: invalid catalog: graph node B: generator is a list, not a string\n"),
    "row-generator-wrong-arity": (
        _set_generator("rows", 1, "1/2,0"),
        "error: invalid catalog: row 2: group element (1/2,0) has 2 phases, expected 3\n"),
    "row-generator-unparsable": (
        _set_generator("rows", 1, "a,b,c"),
        "error: invalid catalog: row 2: bad group element 'a,b,c': "),
    "node-generator-unparsable": (
        _set_generator("graph_nodes", 1, "a,b,c"),
        "error: invalid catalog: graph node B: bad group element 'a,b,c': "),
    "row-f1-unparsable": (
        _set_row("f1", 1, _TRUNCATED),
        "error: invalid catalog: row 2: f1: position 10: expected a variable name\n"),
    "row-f2-transpose-unparsable": (
        _set_row("f2_transpose", 1, _TRUNCATED),
        "error: invalid catalog: row 2: f2_transpose: position 10: expected a variable "
        "name\n"),
    "node-f-unparsable": (
        _set_node("f", 1, _TRUNCATED),
        "error: invalid catalog: graph node B: f: position 10: expected a variable name\n"),
    "entry-variant-unparsable": (
        _set_variant(0, _TRUNCATED),
        "error: invalid catalog: entry E12: variant: position 10: expected a variable "
        "name\n"),
    "node-generator-wrong-arity": (
        _set_generator("graph_nodes", 1, "1/2,0"),
        "error: invalid catalog: graph node B: group element (1/2,0) has 2 phases, "
        "expected 3\n"),
    "row-f1-type-unknown": (
        _set_row("f1_type", 1, "E99"),
        "error: invalid catalog: row 2: f1_type 'E99' is not an entry type\n"),
    "row-f2-type-unknown": (
        _set_row("f2_type", 1, "E99"),
        "error: invalid catalog: row 2: f2_type 'E99' is not an entry type\n"),
    "witness-without-images": (
        _set_row("witness", 1, {}),
        "error: invalid catalog: row 2: witness: missing key 'images'\n"),
    "sector-outside-group": (
        _set_witness_term(1, 2, 2, "0,1/2,1/2"),
        "error: invalid catalog: row 2: witness sector (0,1/2,1/2) is not in the row's "
        "group\n"),
    "sector-unparsable": (
        _set_witness_term(1, 0, 2, "a,b"),
        "error: invalid catalog: row 2: witness sector: bad group element 'a,b': "
        "Invalid literal for Fraction: 'a'\n"),
    "monomial-unknown-variable": (
        _set_witness_term(1, 0, 1, "x9^2"),
        "error: invalid catalog: row 2: witness monomial 'x9^2': position 0: unknown "
        "variable 'x9'\n"),
    "node-cluster-not-int": (
        _set_node("cluster", 1, "1"),
        "error: invalid catalog: graph node B: cluster is a string, not an integer\n"),
    "node-cluster-list": (_set_node("cluster", 1, [1]), "invalid catalog"),
    "node-cluster-bool": (
        _set_node("cluster", 1, True),
        "error: invalid catalog: graph node B: cluster is true or false, not an integer\n"),
    "node-label-null": (
        _set_node("label", 1, None),
        "error: invalid catalog: graph_nodes[1]: label is null, not a string\n"),
    "node-label-int": (_set_node("label", 1, 7), "invalid catalog"),
    "directory": (None, "cannot read catalog file"),
    "nested-arrays": (
        "[" * 100_000 + "]" * 100_000,
        "error: invalid catalog: maximum recursion depth exceeded while decoding a JSON "
        "array from a unicode string\n"),
    "row-group-not-sl": (
        _set_generator("rows", 1, "1/2,0,0"),
        "error: invalid catalog: row 2: " + _NOT_SL),
    "node-group-not-sl": (
        _set_generator("graph_nodes", 1, "1/2,0,0"),
        "error: invalid catalog: graph node B: " + _NOT_SL),
    "row-group-out-of-scope": (
        lambda data: data["rows"][1].update(f2_transpose="x1^4+x2^4+x3^2",
                                            generator="1/4,3/4,0"),
        "error: invalid catalog: row 2: " + _OUT_OF_SCOPE),
    "node-group-out-of-scope": (
        lambda data: data["graph_nodes"][1].update(f="x1^4+x2^4+x3^2", generator="1/4,3/4,0"),
        "error: invalid catalog: graph node B: " + _OUT_OF_SCOPE),
    "witness-monomial-not-invariant": (
        _set_witness_term(1, 0, 1, "x1"),
        "error: invalid catalog: row 2: witness [x1]v_(0,0,0) is not supported on this "
        "basis (non-invariant component)\n"),
    "row-6-witness-monomial-not-invariant": (
        _set_witness_term(5, 0, 1, "x1"),
        "error: invalid catalog: row 6: witness [x1]v_(0,0,0) is not supported on this "
        "basis (non-invariant component)\n"),
}


def _broken_catalog(tmp_path: Path, case: str) -> Path:
    """Write the broken catalog of `case`; return its path."""
    mutate = _BROKEN_CATALOGS[case][0]
    if mutate is None:
        return tmp_path
    path = tmp_path / "broken.json"
    if isinstance(mutate, str):
        path.write_text(mutate)
    else:
        data = load_catalog().data
        mutate(data)
        path.write_text(json.dumps(data))
    return path


def _assert_rejects(tmp_path: Path, capsys, case: str, *argv: str) -> None:
    """In-process, so an uncaught exception fails the test as a traceback would."""
    from oja.cli import main

    path = _broken_catalog(tmp_path, case)
    assert main(["--catalog", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _BROKEN_CATALOGS[case][1] in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("case", sorted(_BROKEN_CATALOGS))
def test_verify_rejects_an_invalid_catalog(tmp_path: Path, capsys, case: str):
    _assert_rejects(tmp_path, capsys, case, "verify", "--row", "2")


@pytest.mark.parametrize("case", sorted(_BROKEN_CATALOGS))
def test_graph_rejects_an_invalid_catalog(tmp_path: Path, capsys, case: str):
    _assert_rejects(tmp_path, capsys, case, "graph")


@pytest.mark.parametrize("case", sorted(_BROKEN_CATALOGS))
def test_search_rejects_an_invalid_catalog(tmp_path: Path, capsys, case: str):
    _assert_rejects(tmp_path, capsys, case, "verify", "--all", "--search")


def test_an_invalid_catalog_exits_2_without_a_traceback_in_a_process(tmp_path: Path):
    """The nested arrays exhaust the JSON reader's recursion in a fresh
    process's stack too, not only under the test runner's deeper one."""
    path = _broken_catalog(tmp_path, "nested-arrays")
    result = _run("--catalog", str(path), "verify", "--row", "2")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr == _BROKEN_CATALOGS["nested-arrays"][1]


# One text for one bad generator: `orbifold --group` and the catalog read it
# through the same reader.  Row 2's target and graph node B are x1^8+x2^3+x3^2.
_BAD_GENERATORS = {
    "wrong-arity": "1/2,0",
    "above-the-limit": "1/999999999999,0,0",
    "not-sl": "1/2,0,0",
    "unparsable": "a,b,c",
}


@pytest.mark.parametrize("generator", _BAD_GENERATORS.values(), ids=_BAD_GENERATORS)
def test_a_bad_generator_reads_the_same_on_the_command_line_and_in_a_catalog(
        tmp_path: Path, monkeypatch, capsys, generator: str):
    from oja.cli import main

    _guard_group_construction(monkeypatch, [])
    assert main(["orbifold", "x1^8+x2^3+x3^2", "--group", generator]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    message = captured.err.removeprefix("error: ")
    for section, record, argv in (("rows", "row 2", ["verify", "--row", "2"]),
                                  ("graph_nodes", "graph node B", ["graph"])):
        data = load_catalog().data
        _set_generator(section, 1, generator)(data)
        path = tmp_path / f"{section}.json"
        path.write_text(json.dumps(data))
        assert main(["--catalog", str(path), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid catalog: {record}: {message}"


def test_graph_exits_1_when_a_cluster_edge_stays_uncertified(tmp_path: Path, capsys):
    """Node X (an E14 pair) moved into cluster 1 beside Q10 pairs: no row can
    link it, so the graph fails verification rather than the input."""
    from oja.cli import main

    data = load_catalog().data
    data["graph_nodes"][-1]["cluster"] = 1
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(data))
    assert main(["--catalog", str(path), "graph"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("verification failed: uncertified edges remain: "
                            "A -- X; B -- X; C -- X\n")


@pytest.mark.parametrize("case", ["node-label-null", "node-label-int"],
                         ids=["null-json", "int-json"])
def test_graph_rejects_a_non_string_label(tmp_path: Path, capsys, case: str):
    _assert_rejects(tmp_path, capsys, case, "--json", "graph")


def test_verify_rejects_a_missing_catalog_file():
    result = _run("--catalog", "/no/such/catalog.json", "verify", "--row", "2")
    assert result.returncode == 2
    assert "not found" in result.stderr


# --- graph ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _graph(*argv: str) -> subprocess.CompletedProcess:
    return _run("graph", *argv)


def test_graph_text_summary():
    result = _graph()
    lines = _lines(result)
    assert result.returncode == 0
    assert lines[0] == "nodes 23"
    assert lines[1] == "edges 24"
    assert "component A B C" in lines
    assert "component J K L M" in lines
    assert "row 2: C ~ B by embedded witness" in lines
    assert "variable renaming: X ~ W" in lines
    assert "compare D J: equal" in lines
    assert "compare G O: distinct" in lines
    assert sum(1 for line in lines if line.startswith("component ")) == 8
    assert sum(1 for line in lines if line.startswith("compare ")) == 6


def test_graph_dot_output():
    result = _graph("--dot")
    assert result.returncode == 0
    assert result.stdout.startswith("graph duality {")
    assert result.stdout.count(" -- ") == 24
    assert result.stdout.count('[label="') == 23


def test_graph_json_output():
    result = _graph("--json")
    data = json.loads(result.stdout)
    assert data["component_sizes"] == [2, 2, 2, 3, 3, 3, 4, 4]
    assert len(data["nodes"]) == 23
    assert len(data["edges"]) == 24
    assert len(data["fingerprint_comparisons"]) == 6


# --- input handling -------------------------------------------------------------


def test_mixed_variable_conventions_are_rejected():
    result = _run("milnor", "x1^2+y^3")
    assert result.returncode == 2
    assert "cannot infer variables" in result.stderr


@pytest.mark.parametrize("poly", ["(z)*x^2+y^2", "(z^2+1)*x1^2"])
def test_names_inside_a_coefficient_are_not_variables(poly: str):
    # z inside parentheses is ζ₂₄, not a third variable or a mixed convention.
    result = _run("milnor", poly)
    assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", "")


@pytest.mark.parametrize("poly, message", [
    ("x1^²", "position 3: expected an integer"),
    ("2²*x1", "position 1: unexpected character '²'"),
])
def test_non_ascii_digits_are_not_integers(poly: str, message: str):
    result = _run("milnor", poly)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")


def test_parse_errors_exit_with_code_two():
    result = _run("milnor", "x1^(3)")
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_non_invertible_polynomial_is_an_input_error():
    result = _run("transpose", "x1^2+x1*x2")  # degenerate exponent matrix
    assert result.returncode == 2


def test_running_without_a_command_prints_help():
    result = _run()
    assert result.returncode == 2
    assert "usage: oja" in result.stderr


def test_json_flag_position_does_not_matter():
    before = _run("--json", "milnor", "x^4+y^3+z^3")
    after = _run("milnor", "x^4+y^3+z^3", "--json")
    assert before.stdout == after.stdout
    assert json.loads(before.stdout)["milnor"] == 12


# --- the enumeration limit --------------------------------------------------------
# Run in-process: without the limit these inputs exhaust memory or enumerate
# about 2·10^12 group elements, so a regression shows as a failure, not a skip.

_HUGE = "x1^999999999999+x2^2"
_BOX = "power box of 999999999998 monomials exceeds the enumeration limit of 100000"


@pytest.mark.parametrize("argv, message", [
    (["milnor", _HUGE], _BOX),
    (["jacobian", _HUGE], _BOX),
    (["orbifold", _HUGE, "--group", "0,0"], _BOX),
    (["symmetry", _HUGE], "|det E| = 1999999999998 exceeds the enumeration limit of 100000"),
    (["orbifold", "x1^3+x2^3", "--group", "1/999999999999,0"],
     "the generators' orders multiply to 999999999999, above the enumeration limit of 100000"),
    (["orbifold", "x1^3+x2^3", *["--group", "1/999999999999,0"] * 2],
     "the generators' orders multiply to 999999999999, above the enumeration limit of 100000"),
], ids=["milnor", "jacobian", "orbifold", "symmetry", "orbifold-generator",
        "orbifold-generator-twice"])
def test_huge_inputs_exit_2_before_enumerating(argv, message, capsys):
    from oja.cli import main

    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err


def test_a_repeated_generator_counts_once_against_the_limit(capsys):
    """17 copies of an order-2 generator multiply to 2^17 > 100,000, but the
    group they generate has order 2."""
    from oja.cli import main

    poly, g = "x1^8+x2^3+x3^2", ["--group", "1/2,0,1/2"]
    assert main(["orbifold", poly, *g]) == 0
    once = capsys.readouterr()
    assert once.out.startswith("dimension 10\n")
    assert main(["orbifold", poly, *g * 17]) == 0
    assert capsys.readouterr() == once


def _guard_group_construction(monkeypatch, calls: list) -> None:
    """Record every group generation; fail fast on a generator of huge order."""
    from oja.symmetry import SymmetryGroup

    original = SymmetryGroup.__init__

    def guarded(self, generators, arity):
        generators = list(generators)
        calls.append(generators)
        if any(g.order() > 10**6 for g in generators):
            raise AssertionError(f"enumerating a group of order {generators[0].order()}")
        original(self, generators, arity)

    monkeypatch.setattr(SymmetryGroup, "__init__", guarded)


@pytest.mark.parametrize("section, argv", [
    ("rows", ["verify", "--row", "2"]),
    ("graph_nodes", ["graph"]),
], ids=["row", "graph-node"])
def test_huge_catalog_generator_exits_2_before_enumerating(tmp_path: Path, monkeypatch,
                                                           capsys, section, argv):
    from oja.cli import main

    data = load_catalog().data
    _set_generator(section, 1, "1/999999999999,0,0")(data)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    _guard_group_construction(monkeypatch, [])
    assert main(["--catalog", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = {"rows": "row 2", "graph_nodes": "graph node B"}[section]
    assert captured.err == (f"error: invalid catalog: {record}: the generators' orders "
                            "multiply to 999999999999, above the enumeration limit of "
                            "100000\n")


def test_symmetry_generates_the_group_once(monkeypatch, capsys):
    from oja.cli import main

    calls: list = []
    _guard_group_construction(monkeypatch, calls)
    assert main(["symmetry", "x1^7+x2^3+x3^2"]) == 0
    assert capsys.readouterr().out == ("order 42\ngenerator (1/7,0,0)\n"
                                       "generator (0,1/3,0)\ngenerator (0,0,1/2)\n")
    assert len(calls) == 1


@pytest.mark.parametrize("json_flag, calls", [(False, 3), (True, 3 + 36)],
                         ids=["text", "json"])
def test_symmetry_formats_group_elements_only_for_the_output(monkeypatch, capsys,
                                                              json_flag, calls):
    """Text mode formats the three generator lines; --json adds the 36 elements."""
    from oja.cli import main
    from oja.symmetry import GroupElement

    formatted: list = []
    original = GroupElement.__str__

    def counting_str(self):
        formatted.append(self)
        return original(self)

    monkeypatch.setattr(GroupElement, "__str__", counting_str)
    argv = ["symmetry", "x1^4+x2^3+x3^3"] + ["--json"] * json_flag
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(formatted) == calls
    if json_flag:
        assert len(json.loads(out)["elements"]) == 36
    else:
        assert out.splitlines()[1:] == ["generator (1/4,0,0)", "generator (0,1/3,0)",
                                        "generator (0,0,1/3)"]


_ORBIFOLD = ["orbifold", "x1^8+x2^3+x3^2", "--group", "1/2,0,1/2", "--structure"]


def test_orbifold_builds_only_the_form_it_prints(monkeypatch, capsys):
    """--json never formats the text lines; text never serializes the algebra."""
    from oja import cli, orbifold

    calls: list = []
    original = cli._orbifold_lines
    monkeypatch.setattr(cli, "_orbifold_lines", lambda *a: calls.append(a) or original(*a))
    assert cli.main(["--json", *_ORBIFOLD]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 10
    assert calls == []

    def no_json(self):
        raise AssertionError("text mode serialized the algebra")

    monkeypatch.setattr(orbifold.OrbifoldAlgebra, "to_json", no_json)
    assert cli.main(_ORBIFOLD) == 0
    assert capsys.readouterr().out.startswith("[1] v_(id) * [1] v_(id) = ")
    assert len(calls) == 1


def test_catalog_stays_far_inside_the_enumeration_limit():
    from oja.catalog import row_source, row_target
    from oja.jacobian import _jacobian_ideal
    from oja.linalg import det_rational
    from oja.poly import ENUMERATION_LIMIT

    catalog = load_catalog()
    ips = [ip for row in catalog.rows for ip in (row_source(row), row_target(row)[0])]
    ips += [node.ip for node in catalog.graph_nodes]
    largest = max(max(abs(det_rational(ip.exponents)), math.prod(_jacobian_ideal(ip.poly)[1]))
                  for ip in ips)
    assert largest == 48
    assert 1000 * largest < ENUMERATION_LIMIT


def test_milnor_of_a_large_power_box_still_runs(capsys):
    from oja.cli import main

    assert main(["milnor", "x1^3000+x2^2"]) == 0
    assert capsys.readouterr().out == "2999\n"


def test_parentheses_around_a_polynomial_exit_2_with_the_coefficient_rule(capsys):
    from oja.cli import main

    assert main(["milnor", "(x1+x2)^2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: position 1: unknown variable 'x1' (parentheses hold "
                            "only a Q(ζ₂₄) coefficient written in z)\n")


def test_milnor_of_a_polynomial_whose_groebner_basis_needs_an_initial_pair(capsys):
    """μ = 7 is the Milnor–Orlik value ∏(d/wᵢ − 1) for q = (5/12, 1/2, 1/6).

    The S-pair of the first two partial derivatives has a nonzero remainder
    (sympy's grevlex basis contains x1^3); dropping it left the ideal looking
    infinite-dimensional.
    """
    from oja.cli import main

    assert main(["milnor", "x2*x3^3+x2^2+x1^2*x3"]) == 0
    assert capsys.readouterr().out == "7\n"


# --- import footprint ------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_runs_neither_the_verify_stack_nor_dataclasses():
    """A query command pays only for the modules it runs.

    `oja.catalog`, `oja.duality` and `oja.orbifold` sit in `sys.modules` from
    the start, so that every lookup by name finds one module, but they run on
    first attribute access; until then their type is importlib's lazy module
    type, not `ModuleType`.
    """
    code = ("import sys, types, oja.cli\n"
            "print(sorted(n for n, m in sys.modules.items() if type(m) is types.ModuleType))\n"
            "print(sys.modules['oja.duality'].certify.__module__)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded, first_use = result.stdout.splitlines()
    loaded = set(ast.literal_eval(loaded))
    assert {"oja.cli", "oja.jacobian"} <= loaded
    assert not loaded & {"oja.catalog", "oja.duality", "oja.orbifold", "dataclasses"}
    assert first_use == "oja.duality"
    importers = [path.name for path in sorted((SRC / "oja").glob("*.py"))
                 if re.search(r"^\s*(from|import) dataclasses\b", path.read_text(), re.M)]
    assert importers == []


# --- process exit ----------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]

# Registers an atexit handler and keeps an object whose finalizer would report
# interpreter teardown, then runs `milnor` as `python -m oja.cli` does (runpy)
# or as the installed `oja` script does (script).
_LAUNCHER = """
import atexit, runpy, sys
class Teardown:
    def __del__(self):
        print("teardown", file=sys.stderr)
keep = Teardown()
atexit.register(print, "atexit", file=sys.stderr)
sys.argv = ["oja", "milnor", "x1^3+x2^2"]
if LAUNCH == "runpy":
    runpy.run_module("oja.cli", run_name="__main__", alter_sys=True)
else:
    from oja.cli import run
    sys.exit(run())
print("after the command", file=sys.stderr)
"""


def _run_buffered(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """`python ARGV` with block-buffered stdout, as it is outside a terminal
    without PYTHONUNBUFFERED, so output still buffered at exit must come out."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *argv], env=env, **kwargs)


def test_output_larger_than_the_buffer_is_complete_in_a_file_and_a_pipe(tmp_path: Path):
    expected = (ROOT / "tests" / "golden" / "verify_all_search_json.txt").read_bytes()
    assert len(expected) > io.DEFAULT_BUFFER_SIZE
    argv = ["-m", "oja.cli", "--json", "verify", "--all", "--search"]
    path = tmp_path / "out.json"
    with open(path, "wb") as stdout:
        to_file = _run_buffered(argv, stdout=stdout)
    piped = _run_buffered(argv, stdout=subprocess.PIPE)
    assert to_file.returncode == piped.returncode == 1
    assert path.read_bytes() == expected
    assert piped.stdout == expected


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    (["milnor", "x1^3+x2^2"], 0, "2\n", ""),
    (["milnor", "x1^"], 2, "", "error: position 3: expected an integer\n"),
    (["verify", "--row", "2", "--all"], 2, "",
     "usage: oja verify [-h] (--row ID | --all) [--search]\n"
     "oja verify: error: argument --all: not allowed with argument --row\n"),
], ids=["success", "bad-input", "argparse"])
def test_exit_codes_and_streams_of_a_command(argv, code, stdout, stderr):
    result = _run_buffered(["-m", "oja.cli", *argv], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (code, stdout, stderr)


def test_no_command_prints_the_help_and_exits_2():
    result = _run_buffered(["-m", "oja.cli"], capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("usage: oja [-h] [--json] [--catalog PATH] command ...\n")


# Commands whose output cannot be written: two bytes, a 2 KB JSON document, one
# larger than the buffer, so that the write itself fails, not the flush, and the
# help of the root parser and of a subparser.
_UNWRITTEN = {
    "milnor": ["milnor", "x1^3+x2^2"],
    "verify-row": ["--json", "verify", "--row", "3"],
    "larger-than-the-buffer": ["--json", "symmetry", "x1^32+x2^32"],
    "help": ["--help"],
    "verify-help": ["verify", "--help"],
}


def test_the_large_output_is_larger_than_the_buffer(capsys):
    from oja.cli import main

    assert main(_UNWRITTEN["larger-than-the-buffer"]) == 0
    assert len(capsys.readouterr().out) > 2 * io.DEFAULT_BUFFER_SIZE


@contextmanager
def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        yield write_end
    finally:
        os.close(write_end)


@contextmanager
def _full_disk():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "wb") as stdout:
        yield stdout


@pytest.mark.parametrize("command", _UNWRITTEN)
@pytest.mark.parametrize("sink, reason", [(_closed_pipe, "Broken pipe"),
                                          (_full_disk, "No space left on device")],
                         ids=["closed-pipe", "dev-full"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_write_error_exits_120_with_one_line(command, sink, reason, unbuffered):
    """A closed pipe or a full disk ends in one `error:` line and exit 120,
    whether stdout is block-buffered or written through (`-u`, which is
    PYTHONUNBUFFERED=1)."""
    argv = ["-u"] * unbuffered + ["-m", "oja.cli", *_UNWRITTEN[command]]
    with sink() as stdout:
        result = _run_buffered(argv, stdout=stdout, stderr=subprocess.PIPE, text=True)
    assert (result.returncode, result.stderr) == (
        120, f"error: cannot write the output: {reason}\n")


def test_the_help_is_the_parser_help_on_stdout(capsys):
    from oja.cli import _build_parser, main

    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr() == (_build_parser().format_help(), "")


def test_main_returns_120_when_stdout_refuses_the_write(monkeypatch, capsys):
    from oja.cli import main

    class ClosedPipe(io.StringIO):
        def write(self, text: str) -> int:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["milnor", "x1^3+x2^2"]) == 120
    assert capsys.readouterr().err == "error: cannot write the output: Broken pipe\n"


def test_a_profiled_run_still_prints_its_report():
    result = _run_buffered(["-m", "cProfile", "-m", "oja.cli", "milnor", "x1^3+x2^2"],
                           capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.startswith("2\n")
    assert "function calls" in result.stdout and "Ordered by" in result.stdout


@pytest.mark.parametrize("launch", ["runpy", "script"])
def test_the_process_ends_after_atexit_handlers_without_teardown(launch: str):
    result = _run_buffered(["-c", f"LAUNCH = {launch!r}\n" + _LAUNCHER],
                           capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "2\n", "atexit\n")


def test_main_in_process_returns_its_code(capsys):
    from oja.cli import main

    codes = [main(["milnor", "x1^3+x2^2"]), main(["milnor", "x1^"])]
    assert codes == [0, 2] and all(type(code) is int for code in codes)
    assert capsys.readouterr() == ("2\n", "error: position 3: expected an integer\n")


def test_the_oja_script_runs_the_entry_the_main_block_calls():
    tomllib = pytest.importorskip("tomllib")
    import oja.cli

    script = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["oja"]
    module, _, name = script.partition(":")
    tree = ast.parse((SRC / "oja" / "cli.py").read_text())
    block = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    called = [node.func.id for node in ast.walk(block) if isinstance(node, ast.Call)]
    assert module == "oja.cli"
    assert called == [name] and callable(getattr(oja.cli, name))
