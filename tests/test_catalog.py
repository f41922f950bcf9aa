from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache

import pytest

from oja.catalog import (
    _parse_scalar,
    load_catalog,
    row_source,
    row_target,
    row_witness,
)
from oja.scalar import CycScalar, HALF_I, I_UNIT, SQRT2, SQRT3
from oja.symmetry import matching_permutations, transpose


@lru_cache(maxsize=None)
def _catalog():
    return load_catalog()


# --- shape ---------------------------------------------------------------

def test_catalog_counts():
    cat = _catalog()
    assert cat.data["version"] == 1
    assert len(cat.entries) == 14
    assert len(cat.rows) == 20
    assert sum(1 for r in cat.rows if r.reduced) == 7
    assert len(cat.graph_nodes) == 23
    assert sorted(cat.data) == ["entries", "graph_nodes", "rows", "version"]


def test_total_variant_count():
    assert sum(len(e.variants) for e in _catalog().entries) == 21


def test_self_dual_and_mirror_pairs():
    duals = {e.type_name: e.strange_dual for e in _catalog().entries}
    assert duals["Q10"] == "E14" and duals["E14"] == "Q10"
    assert duals["Q11"] == "Z13" and duals["Z13"] == "Q11"
    assert duals["S11"] == "W13" and duals["W13"] == "S11"
    assert duals["Z11"] == "E13" and duals["E13"] == "Z11"
    self_dual = sorted(t for t, d in duals.items() if t == d)
    assert self_dual == ["E12", "Q12", "S12", "U12", "W12", "Z12"]


def test_strange_duality_is_involution():
    cat = _catalog()
    for entry in cat.entries:
        assert cat.entry(entry.strange_dual).strange_dual == entry.type_name


def test_u12_has_three_variants():
    assert len(_catalog().entry("U12").variants) == 3


def test_row_lookup_and_reduced_set():
    cat = _catalog()
    assert [r.index for r in cat.rows] == list(range(1, 21))
    assert sorted(r.index for r in cat.rows if r.reduced) == [2, 3, 6, 7, 8, 12, 18]
    assert cat.row(7).f2_type == "W13"


def test_graph_nodes_clusters():
    nodes = _catalog().graph_nodes
    sizes: dict[int, int] = {}
    for node in nodes:
        sizes[node.cluster] = sizes.get(node.cluster, 0) + 1
    assert sorted(sizes.values()) == [2, 2, 2, 3, 3, 3, 4, 4]
    assert [n.label for n in nodes][:5] == ["A", "B", "C", "D", "E"]


# --- live objects --------------------------------------------------------

def test_row_source_and_target():
    row = _catalog().row(2)
    source = row_source(row)
    assert str(source.poly) == "x1^4 + x2^3 + x1*x3^2"
    target_ip, group = row_target(row)
    assert group.order == 2
    assert str(target_ip.poly) == "x1^8 + x2^3 + x3^2"


def test_row_transposes_match_up_to_renaming():
    from oja.symmetry import parse_invertible

    cat = _catalog()
    for row in cat.rows:
        target_ip, _ = row_target(row)
        variants = cat.entry(row.f2_type).variants
        assert any(
            any(True for _ in matching_permutations(
                transpose(parse_invertible(v)).poly, target_ip.poly))
            for v in variants), f"row {row.index} transpose mismatch"


def test_witness_vectors_match_hand_construction():
    from oja.poly import parse
    from oja.symmetry import GroupElement

    w = row_witness(_catalog().row(2))
    algebra = w.target
    vars3 = algebra.ip.vars
    identity = GroupElement.identity(3)
    twist = GroupElement.parse("1/2,0,1/2")
    expected_x1 = algebra.element(parse("x1^2", vars3), identity)
    expected_x2 = algebra.element(parse("x2", vars3), identity)
    unit_twist = algebra.element(parse("1", vars3), twist)
    expected_x3 = {k: HALF_I * c for k, c in unit_twist.items()}
    assert w.images[0] == expected_x1
    assert w.images[1] == expected_x2
    assert w.images[2] == expected_x3


def test_empty_image_list_means_zero():
    w = row_witness(_catalog().row(18))
    assert w.images[2] == {}


def test_unreduced_rows_have_no_witness():
    cat = _catalog()
    assert row_witness(cat.row(1)) is None
    assert row_witness(cat.row(19)) is None


# --- scalar grammar -------------------------------------------------------

@pytest.mark.parametrize("text,value", [
    ("1", CycScalar.one()),
    ("-1/4", CycScalar.from_rational(Fraction(-1, 4))),
    ("i", I_UNIT),
    ("i/2", HALF_I),
    ("-i/2", -HALF_I),
    ("sqrt2/2", SQRT2 * CycScalar.from_rational(Fraction(1, 2))),
    ("sqrt3/3", SQRT3 * CycScalar.from_rational(Fraction(1, 3))),
    ("2", CycScalar.from_rational(2)),
])
def test_parse_scalar(text, value):
    assert _parse_scalar(text) == value


# --- catalog files --------------------------------------------------------

def test_a_written_catalog_loads_unchanged(tmp_path):
    cat = _catalog()
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(cat.data, indent=2))
    again = load_catalog(path)
    assert again.data == cat.data
    assert (again.entries, again.rows, again.graph_nodes) == (
        cat.entries, cat.rows, cat.graph_nodes)


def test_catalog_in_alias_names_loads_and_verifies(tmp_path, capsys):
    """Catalog polynomials follow the command line's rule for variables, so a
    catalog written in x, y, z loads, and its witnesses parse in those names."""
    from oja.cli import main

    text = re.sub(r"x([123])", lambda m: "xyz"[int(m.group(1)) - 1],
                  json.dumps(_catalog().data))
    path = tmp_path / "xyz.json"
    path.write_text(text)
    row = load_catalog(path).row(2)
    assert row.f1 == "x^4+y^3+x*z^2"
    assert row_source(row).vars == ("x", "y", "z")
    assert main(["--catalog", str(path), "verify", "--row", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["row 2: Q10 ~ E14 frobenius (embedded witness)",
                         "  x -> (1) [x^2] v_(id)"]


# --- validation -----------------------------------------------------------

def _write_mutated(tmp_path, mutate):
    data = load_catalog().data
    mutate(data)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    return path


def test_rejects_unknown_version(tmp_path):
    path = _write_mutated(tmp_path, lambda d: d.update(version=2))
    with pytest.raises(ValueError, match="version"):
        load_catalog(path)


def test_rejects_non_involutive_duals(tmp_path):
    def mutate(d):
        d["entries"][0]["dual"] = "Z11"
    with pytest.raises(ValueError, match="involution"):
        load_catalog(_write_mutated(tmp_path, mutate))


def test_rejects_degenerate_variant(tmp_path):
    def mutate(d):
        d["entries"][0]["variants"] = ["x1^2*x2^2+x2^3+x3^2"]
    with pytest.raises(ValueError):
        load_catalog(_write_mutated(tmp_path, mutate))


def test_rejects_row_with_foreign_f1(tmp_path):
    def mutate(d):
        d["rows"][0]["f1"] = "x1^9+x2^3+x3^2"
    with pytest.raises(ValueError, match="variant"):
        load_catalog(_write_mutated(tmp_path, mutate))


def test_rejects_non_special_linear_generator(tmp_path):
    def mutate(d):
        d["rows"][0]["generator"] = "1/2,0,1/2"
    with pytest.raises(ValueError, match="special-linear"):
        load_catalog(_write_mutated(tmp_path, mutate))


def test_rejects_reduced_row_without_witness(tmp_path):
    def mutate(d):
        d["rows"][1]["witness"] = None
    with pytest.raises(ValueError, match="witness"):
        load_catalog(_write_mutated(tmp_path, mutate))


def test_rejects_missing_row(tmp_path):
    def mutate(d):
        del d["rows"][5]
    with pytest.raises(ValueError, match="1..20"):
        load_catalog(_write_mutated(tmp_path, mutate))


def test_rejects_transpose_mismatch(tmp_path):
    def mutate(d):
        d["rows"][0]["f2_transpose"] = "x1^7+x2^3+x3^2"
        d["rows"][0]["f2_type"] = "Q10"
    with pytest.raises(ValueError, match="transposed"):
        load_catalog(_write_mutated(tmp_path, mutate))


def test_rejects_graph_node_with_bad_group(tmp_path):
    def mutate(d):
        d["graph_nodes"][1]["generator"] = "1/2,1/2,0"
    with pytest.raises(ValueError, match="graph node"):
        load_catalog(_write_mutated(tmp_path, mutate))
