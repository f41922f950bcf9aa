"""End-to-end tests for the `oja` command line, run as subprocesses."""

from __future__ import annotations

import ast
import json
import math
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from typing import Callable

import pytest

from oja.catalog import load_catalog, serialize


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


@pytest.mark.parametrize("poly, spec", [("2^2+b^3", "2,b"), ("x1^2+x2^3", "x1,x2,q+r")])
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
    """The SL subgroup keeps no generators and no element has order 16, so the
    generators shown are the greedy closure sweep's."""
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
    path.write_text(serialize(load_catalog()))
    before = _run("--catalog", str(path), "verify", "--row", "2")
    after = _run("verify", "--row", "2", "--catalog", str(path))
    assert before.returncode == after.returncode == 0
    assert before.stdout == after.stdout


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


def _set_node(field: str, index: int, value) -> Callable[[dict], None]:
    def mutate(data: dict) -> None:
        data["graph_nodes"][index][field] = value
    return mutate


# Each case: a change to the bundled catalog (None: the catalog path is a
# directory), and the message expected on stderr: a substring, or the whole
# line with its newline.  Position 1 holds row 2, whose group is
# <(1/2,0,1/2)>, and graph node B.
_BROKEN_CATALOGS = {
    "missing-sections": (_keep_only_version, "invalid catalog"),
    "scalar-not-a-string": (
        _set_witness_term(1, 0, 0, 1),
        "error: invalid catalog: row 2: witness term [1, 'x1^2', '0,0,0'] is not three "
        "strings (scalar, monomial, sector)\n"),
    "scalar-divides-by-zero": (_set_witness_term(1, 0, 0, "1/0"),
                               "error: invalid catalog: bad witness scalar '1/0'\n"),
    "term-not-three-strings": (
        _set_witness_image(1, 0, [["1", "x1^2"]]),
        "error: invalid catalog: row 2: witness term ['1', 'x1^2'] is not three "
        "strings (scalar, monomial, sector)\n"),
    "wrong-number-of-images": (_drop_witness_image(1),
                               "error: invalid catalog: row 2: witness needs 3 images\n"),
    "row-generator-not-a-string": (_set_generator("rows", 1, ["1/2", "0", "1/2"]),
                                   "invalid catalog"),
    "node-generator-not-a-string": (_set_generator("graph_nodes", 1, ["1/2", "0", "1/2"]),
                                    "invalid catalog"),
    "sector-outside-group": (
        _set_witness_term(1, 2, 2, "0,1/2,1/2"),
        "error: invalid catalog: row 2: witness sector (0,1/2,1/2) is not in the row's "
        "group\n"),
    "monomial-unknown-variable": (
        _set_witness_term(1, 0, 1, "x9^2"),
        "error: invalid catalog: row 2: witness monomial 'x9^2': position 0: unknown "
        "variable 'x9'\n"),
    "node-cluster-not-int": (_set_node("cluster", 1, "1"), "invalid catalog"),
    "node-cluster-list": (_set_node("cluster", 1, [1]), "invalid catalog"),
    "node-cluster-bool": (_set_node("cluster", 1, True), "invalid catalog"),
    "node-label-null": (_set_node("label", 1, None), "invalid catalog"),
    "node-label-int": (_set_node("label", 1, 7), "invalid catalog"),
    "directory": (None, "cannot read catalog file"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_CATALOGS))
def test_verify_rejects_an_invalid_catalog(tmp_path: Path, case: str):
    mutate, message = _BROKEN_CATALOGS[case]
    path = tmp_path
    if mutate is not None:
        data = json.loads(serialize(load_catalog()))
        mutate(data)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
    result = _run("--catalog", str(path), "verify", "--row", "2")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert message in result.stderr


def _assert_graph_rejects(tmp_path: Path, mutate: Callable[[dict], None],
                          *argv: str) -> None:
    data = json.loads(serialize(load_catalog()))
    mutate(data)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    result = _run("--catalog", str(path), *argv)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "invalid catalog" in result.stderr


def test_graph_rejects_a_witness_monomial_in_unknown_variables(tmp_path: Path):
    _assert_graph_rejects(tmp_path, _set_witness_term(1, 0, 1, "x9^2"), "graph")


@pytest.mark.parametrize("value", ["1", [1], True], ids=["string", "list", "bool"])
def test_graph_rejects_a_non_integer_cluster(tmp_path: Path, value):
    _assert_graph_rejects(tmp_path, _set_node("cluster", 1, value), "graph")


@pytest.mark.parametrize("argv", [("graph",), ("--json", "graph")], ids=["text", "json"])
@pytest.mark.parametrize("value", [None, 7], ids=["null", "int"])
def test_graph_rejects_a_non_string_label(tmp_path: Path, value, argv):
    _assert_graph_rejects(tmp_path, _set_node("label", 1, value), *argv)


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
], ids=["milnor", "jacobian", "orbifold", "symmetry", "orbifold-generator"])
def test_huge_inputs_exit_2_before_enumerating(argv, message, capsys):
    from oja.cli import main

    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err


def _guard_generated_by(monkeypatch, calls: list) -> None:
    """Record every group generation; fail fast on a generator of huge order."""
    from oja.symmetry import SymmetryGroup

    original = SymmetryGroup.generated_by.__func__

    def guarded(cls, generators, arity):
        generators = list(generators)
        calls.append(generators)
        if any(g.order() > 10**6 for g in generators):
            raise AssertionError(f"enumerating a group of order {generators[0].order()}")
        return original(cls, generators, arity)

    monkeypatch.setattr(SymmetryGroup, "generated_by", classmethod(guarded))


@pytest.mark.parametrize("section, argv", [
    ("rows", ["verify", "--row", "2"]),
    ("graph_nodes", ["graph"]),
], ids=["row", "graph-node"])
def test_huge_catalog_generator_exits_2_before_enumerating(tmp_path: Path, monkeypatch,
                                                           capsys, section, argv):
    from oja.cli import main

    data = json.loads(serialize(load_catalog()))
    _set_generator(section, 1, "1/999999999999,0,0")(data)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    _guard_generated_by(monkeypatch, [])
    assert main(["--catalog", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: invalid catalog: group generator (1/999999999999,0,0) "
                            "has order 999999999999, above the enumeration limit of 100000\n")


def test_symmetry_generates_the_group_once(monkeypatch, capsys):
    from oja.cli import main

    calls: list = []
    _guard_generated_by(monkeypatch, calls)
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
