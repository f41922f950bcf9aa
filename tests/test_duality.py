from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest

from oja import duality
from oja.catalog import load_catalog, row_source, row_target, row_witness
from oja.duality import (
    IsoWitness,
    SearchFailure,
    certify,
    duality_graph,
    search_iso,
    source_algebra,
    verify_algebra_iso,
    verify_frobenius_iso,
    verify_witness,
)
from oja.jacobian import fingerprint
from oja.linalg import solve_linear
from oja.orbifold import orbifold_algebra
from oja.poly import Poly
from oja.scalar import CycScalar
from oja.symmetry import GroupElement

_ZERO = CycScalar.zero()
_ONE = CycScalar.one()


@lru_cache(maxsize=None)
def _catalog():
    return load_catalog()


@lru_cache(maxsize=None)
def _graph():
    return duality_graph(_catalog())


def _target_algebra(row):
    ip, group = row_target(row)
    return orbifold_algebra(ip, group)


# --- embedded witnesses ------------------------------------------------

# row index -> trace of the distinguished socle basis vector of the target
_SOCLE_TRACE = {
    2: Fraction(1, 24),
    3: Fraction(1, 18),
    6: Fraction(1, 15),
    7: Fraction(1, 16),
    8: Fraction(1, 12),
    12: Fraction(1, 12),
    18: Fraction(1, 20),
}

_REDUCED_DIMS = {2: 10, 3: 11, 6: 12, 7: 11, 8: 12, 12: 12, 18: 12}


@pytest.mark.parametrize("index", sorted(_SOCLE_TRACE))
def test_embedded_witness_is_algebra_iso(index):
    w = row_witness(_catalog().row(index))
    report = verify_algebra_iso(w)
    assert report.passed, report.failure()


@pytest.mark.parametrize("index", sorted(_SOCLE_TRACE))
def test_embedded_witness_preserves_pairing(index):
    w = row_witness(_catalog().row(index))
    report = verify_frobenius_iso(w)
    assert report.passed, report.failure()


@pytest.mark.parametrize("index", sorted(_REDUCED_DIMS))
def test_embedded_witness_target_dimension(index):
    w = row_witness(_catalog().row(index))
    assert w.target.dim == _REDUCED_DIMS[index]


@pytest.mark.parametrize("index", sorted(_SOCLE_TRACE))
def test_target_trace_is_supported_on_one_socle_vector(index):
    """The target trace vanishes except on a single basis vector."""
    algebra = _target_algebra(_catalog().row(index))
    values = []
    for k in range(algebra.dim):
        unit = [_ONE if i == k else _ZERO for i in range(algebra.dim)]
        value = algebra.trace(unit)
        if not value.is_zero():
            values.append(value)
    assert len(values) == 1
    assert values[0] == CycScalar.from_rational(_SOCLE_TRACE[index])


@pytest.mark.parametrize("index", sorted(_SOCLE_TRACE))
def test_witness_fingerprints_match(index):
    w = row_witness(_catalog().row(index))
    assert fingerprint(source_algebra(w.source)) == fingerprint(w.target)


def test_witness_json_and_str_shapes():
    w = row_witness(_catalog().row(2))
    data = w.to_json()
    assert data["source"]["variables"] == ["x1", "x2", "x3"]
    assert len(data["images"]) == 3
    # the third variable lands in the twisted sector with coefficient i/2
    labels = [label for label, _ in data["images"][2]]
    assert labels == ["[1] v_(1/2,0,1/2)"]
    assert "->" in str(w)


# --- the failing-image control -----------------------------------------

def test_unscaled_twisted_image_fails_with_visible_residue():
    """Dropping the i/2 factor must fail, leaving a 20-fold socle residue."""
    row = _catalog().row(2)
    algebra = _target_algebra(row)
    source = row_source(row)
    vars3 = ("x1", "x2", "x3")
    good = row_witness(row)
    bad_images = (
        good.images[0],
        good.images[1],
        tuple(algebra.element(Poly.constant(vars3, _ONE),
                              next(g for g in algebra.group
                                   if not g.is_identity()))),
    )
    report = verify_witness(IsoWitness(source, algebra, bad_images))
    assert not report.passed
    relations = next(c for c in report.checks if c.name == "relations")
    assert not relations.passed
    assert "20" in relations.detail
    assert "x1^6" in relations.detail


def test_identity_witness_verifies():
    source = row_source(_catalog().row(1))
    algebra = source_algebra(source)
    identity = GroupElement.identity(source.arity)
    images = tuple(
        tuple(algebra.element(Poly.variable(source.vars, i), identity))
        for i in range(source.arity))
    report = verify_witness(IsoWitness(source, algebra, images))
    assert report.passed, report.failure()


# --- the ansatz search -------------------------------------------------

def test_search_recovers_reduced_row():
    row = _catalog().row(2)
    found = search_iso(row_source(row), _target_algebra(row))
    assert verify_witness(found).passed


def test_search_handles_untwisted_row():
    row = _catalog().row(1)
    found = search_iso(row_source(row), _target_algebra(row))
    assert verify_witness(found).passed
    assert found.target.dim == 14


def test_search_is_deterministic():
    row = _catalog().row(4)
    a = search_iso(row_source(row), _target_algebra(row))
    b = search_iso(row_source(row), _target_algebra(row))
    assert a.images == b.images


def test_search_rejects_dimension_mismatch():
    with pytest.raises(SearchFailure, match="dimensions differ"):
        search_iso(row_source(_catalog().row(2)),
                   _target_algebra(_catalog().row(18)))


@pytest.mark.parametrize("index", [19, 20])
def test_obstructed_rows_admit_algebra_iso_only(index):
    row = _catalog().row(index)
    source, target = row_source(row), _target_algebra(row)
    with pytest.raises(SearchFailure):
        search_iso(source, target)
    found = search_iso(source, target, require_frobenius=False)
    assert verify_algebra_iso(found).passed
    assert not verify_frobenius_iso(found).passed


def test_certify_reports_levels():
    cat = _catalog()
    row2 = cat.row(2)
    cert = certify(row_source(row2), _target_algebra(row2), row_witness(row2))
    assert cert.level == "frobenius" and cert.method == "embedded witness"
    assert cert.full
    row19 = cat.row(19)
    cert19 = certify(row_source(row19), _target_algebra(row19))
    assert cert19.level == "algebra" and not cert19.full
    assert sorted(cert19.to_json()) == ["level", "method", "report", "witness"]


def test_solver_guesses_an_unknown_no_equation_names_from_the_bank():
    """u1 appears in no equation: after u0 = 1 it takes every bank value in order."""
    ring = ("u0", "u1")
    budget = duality._Budget(100)
    solutions = list(duality._solve_system([Poly.variable(ring, 0) - Poly.constant(ring, _ONE)],
                                           len(ring), budget))
    assert solutions == [{0: _ONE, 1: value} for value in duality._BANK]
    # One node for u0's linear root, one with nothing pending, one per guess.
    assert budget.left == 100 - 2 - len(duality._BANK)


# --- inverse maps ------------------------------------------------------

def test_inverse_of_frobenius_witness_preserves_pairing():
    """The inverse linear map carries the target pairing back to the source."""
    w = row_witness(_catalog().row(2))
    src = source_algebra(w.source)
    target = w.target
    phi = w.image_matrix  # rows: source basis -> target coordinates
    transposed = [[phi[j][i] for j in range(src.dim)] for i in range(target.dim)]
    inverse_rows = []
    for k in range(target.dim):
        rhs = [_ONE if i == k else _ZERO for i in range(target.dim)]
        particular, _ = solve_linear(transposed, rhs, _ZERO, _ONE)
        assert particular is not None
        inverse_rows.append(particular)
    for k in range(target.dim):
        for l in range(k, target.dim):
            unit_k = [_ONE if i == k else _ZERO for i in range(target.dim)]
            unit_l = [_ONE if i == l else _ZERO for i in range(target.dim)]
            assert src.pairing(inverse_rows[k], inverse_rows[l]) == \
                target.pairing(unit_k, unit_l)


# --- the isomorphism graph ---------------------------------------------

def test_graph_component_sizes():
    assert _graph().component_sizes() == [2, 2, 2, 3, 3, 3, 4, 4]


def test_graph_edge_count():
    graph = _graph()
    assert len(graph.edges) == 24
    seen = {(e.a, e.b) for e in graph.edges}
    assert len(seen) == 24


def test_graph_components_are_clusters():
    graph = _graph()
    assert [list(c) for c in graph.components] == [
        ["A", "B", "C"], ["D", "E", "F"], ["G", "H", "I"],
        ["J", "K", "L", "M"], ["O", "P", "Q", "R"],
        ["S", "T"], ["U", "V"], ["W", "X"],
    ]


def test_graph_edges_stay_inside_components():
    graph = _graph()
    component_of = {label: i for i, comp in enumerate(graph.components)
                    for label in comp}
    for edge in graph.edges:
        assert component_of[edge.a] == component_of[edge.b]


def test_graph_certifications_name_rows_and_renamings():
    lines = _graph().certifications
    assert "row 2: C ~ B by embedded witness" in lines
    assert "row 3: V ~ U by embedded witness" in lines
    assert "row 16: I ~ H by ansatz search" in lines
    assert any(line.startswith("variable renaming:") for line in lines)


def test_graph_fingerprint_comparisons():
    graph = _graph()
    comparisons = graph.fingerprint_comparisons()
    assert len(comparisons) == 6
    assert all(graph.fingerprints[a].dim == 12 for a, _, _ in comparisons)
    results = {(a, b): eq for a, b, eq in comparisons}
    # the two clusters drawing the same pairs agree; all other pairs differ
    assert results[("D", "J")] is True
    assert sum(1 for eq in results.values() if eq) == 1


def test_graph_separates_small_dimensions():
    graph = _graph()
    rep_dims = {comp[0]: graph.fingerprints[comp[0]].dim
                for comp in graph.components}
    assert rep_dims["A"] == 10
    assert sorted(rep_dims.values()) == [10, 11, 12, 12, 12, 12, 13, 14]


def test_graph_json_and_dot():
    graph = _graph()
    data = graph.to_json()
    assert len(data["nodes"]) == 23
    assert len(data["edges"]) == 24
    assert data["component_sizes"] == [2, 2, 2, 3, 3, 3, 4, 4]
    assert len(data["fingerprint_comparisons"]) == 6
    dot = graph.to_dot()
    assert dot.startswith("graph duality {")
    assert dot.count(" -- ") == 24
    assert dot.count('[label="') == 23
