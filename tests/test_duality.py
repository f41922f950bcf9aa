from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from oja import duality
from oja.catalog import load_catalog, row_source, row_target, row_witness
from oja.cli import main
from oja.duality import (
    Check,
    IsoWitness,
    Report,
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
from oja.scalar import CycScalar, kth_roots, square_roots
from oja.symmetry import GroupElement, SymmetryGroup, build_invertible, matching_permutations

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
    assert report.passed, report.to_json()


@pytest.mark.parametrize("index", sorted(_SOCLE_TRACE))
def test_embedded_witness_preserves_pairing(index):
    w = row_witness(_catalog().row(index))
    report = verify_frobenius_iso(w)
    assert report.passed, report.to_json()


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
        value = algebra.trace({k: _ONE})
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
        algebra.element(Poly.constant(vars3, _ONE),
                        next(g for g in algebra.group if not g.is_identity())),
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
    images = tuple(algebra.element(Poly.variable(source.vars, i), identity)
                   for i in range(source.arity))
    report = verify_witness(IsoWitness(source, algebra, images))
    assert report.passed, report.to_json()


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


def test_a_witness_failing_its_pairing_check_is_never_a_frobenius_row(monkeypatch, capsys):
    """`certify` takes a searched witness's level from the search, which returns
    only witnesses whose checks passed: with every pairing check failing, row 2
    is certified at algebra level."""
    failed = Report((Check("pairings", False, "refused"),))
    monkeypatch.setattr(duality, "verify_frobenius_iso", lambda w: failed)
    assert main(["verify", "--row", "2", "--search"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "row 2: Q10 ~ E14 algebra (ansatz search)"
    assert "  pairings: FAIL (refused)" not in lines


def test_solver_guesses_an_unknown_no_equation_names_from_the_bank():
    """u1 appears in no equation: after u0 = 1 it takes every bank value in order."""
    ring = ("u0", "u1")
    eqs = [Poly.variable(ring, 0) - Poly.constant(ring, _ONE)]
    # One node for u0's linear root, one with nothing pending, one per guess.
    nodes = 2 + len(duality._BANK)
    solutions = list(duality._solve_system(eqs, len(ring), nodes))
    assert solutions == [{0: _ONE, 1: value} for value in duality._BANK]
    with pytest.raises(duality.SearchFailure, match=f"after {nodes - 1} nodes"):
        list(duality._solve_system(eqs, len(ring), nodes - 1))


def _reference_univariate_roots(profile: dict[int, CycScalar]) -> list[CycScalar] | None:
    """The five-branch root finder that `_univariate_roots` replaced."""
    exponents = sorted(profile)
    if len(exponents) == 1:
        return [_ZERO]
    if len(exponents) == 2 and exponents[0] == 0:
        j = exponents[1]
        return kth_roots(-(profile[0] * profile[j].inverse()), j)
    if exponents == [0, 1, 2]:
        a, b, c = profile[2], profile[1], profile[0]
        disc = b * b - CycScalar.from_rational(4) * a * c
        half = CycScalar.from_rational(Fraction(1, 2)) * a.inverse()
        return [(-b + s) * half for s in square_roots(disc)]
    if exponents == [1, 2]:
        return [_ZERO, -(profile[1] * profile[2].inverse())]
    if all(e % 2 == 0 for e in exponents) and exponents[-1] <= 4:
        outer = _reference_univariate_roots({e // 2: c for e, c in profile.items()})
        return None if outer is None else [r for v in outer for r in square_roots(v)]
    return None


# Exponent sets the reference solves, then sets only the substitution rule solves.
_OLD_SHAPES = [(1,), (3,), *((0, j) for j in range(1, 7)), (0, 1, 2), (1, 2), (2, 4), (0, 2, 4)]
_NEW_SHAPES = [(1, 3), (0, 3, 6), (0, 4, 8)]


def _random_scalar(rng: random.Random) -> CycScalar:
    """A nonzero q·z^m, the shape whose roots the field search finds."""
    q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    return CycScalar.from_rational(q) * CycScalar.zeta(rng.randrange(24))


def _profiles(exponents: tuple[int, ...], rng: random.Random):
    """(profile, a root u of it or None): random nonzero coefficients, then
    lead·u^low·(v - w^g)·(v - t·w^g) in v = u^g (one factor when linear in v),
    which has the root u = w and both of whose roots in v are q·z^m."""
    yield {e: _random_scalar(rng) for e in exponents}, None
    low, rest = exponents[0], [e - exponents[0] for e in exponents[1:]]
    if rest:
        w, lead = _random_scalar(rng), _random_scalar(rng)
        v = w ** rest[0]
        if len(rest) == 1:
            coeffs = [-(lead * v), lead]
        else:
            t = CycScalar.from_rational(rng.choice([2, 3, -2, Fraction(1, 2)]))
            coeffs = [lead * v * v * t, -(lead * (v + v * t)), lead]
        yield {low + k * rest[0]: c for k, c in enumerate(coeffs)}, w


def _value(profile: dict[int, CycScalar], u: CycScalar) -> CycScalar:
    total = _ZERO
    for e, c in profile.items():
        total = total + c * u ** e
    return total


@pytest.mark.parametrize("exponents", _OLD_SHAPES + _NEW_SHAPES, ids=str)
def test_univariate_roots_match_the_branch_reference_and_solve_the_equation(exponents):
    rng = random.Random(str(exponents))
    for _ in range(6):
        for profile, chosen in _profiles(exponents, rng):
            assert sorted(profile) == list(exponents)
            roots = duality._univariate_roots(profile)
            if exponents in _OLD_SHAPES:
                assert roots == _reference_univariate_roots(profile)
            assert roots is not None and all(not _value(profile, r) for r in roots)
            assert chosen is None or chosen in roots


def test_univariate_roots_refuse_shapes_beyond_quadratic_in_a_power():
    for exponents in [(0, 1, 3), (0, 1, 2, 3), (2, 3, 5), (0, 2, 6)]:
        assert duality._univariate_roots({e: _ONE for e in exponents}) is None


# --- inverse maps ------------------------------------------------------

def test_inverse_of_frobenius_witness_preserves_pairing():
    """The inverse linear map carries the target pairing back to the source."""
    w = row_witness(_catalog().row(2))
    src = source_algebra(w.source)
    target = w.target
    phi = w.image_matrix  # rows: source basis -> sparse target coordinates
    transposed = [[phi[j].get(i, _ZERO) for j in range(src.dim)] for i in range(target.dim)]
    inverse_rows = []
    for k in range(target.dim):
        rhs = [_ONE if i == k else _ZERO for i in range(target.dim)]
        particular, _ = solve_linear(transposed, rhs, _ZERO, _ONE)
        assert particular is not None
        inverse_rows.append({i: c for i, c in enumerate(particular) if c})
    for k in range(target.dim):
        for l in range(k, target.dim):
            assert src.pairing(inverse_rows[k], inverse_rows[l]) == \
                target.pairing({k: _ONE}, {l: _ONE})


# --- the isomorphism graph ---------------------------------------------

def test_graph_component_sizes():
    assert _graph().component_sizes() == [2, 2, 2, 3, 3, 3, 4, 4]


def test_graph_edge_count():
    graph = _graph()
    assert len(graph.edges) == 24
    seen = set(graph.edges)
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
    for a, b in graph.edges:
        assert component_of[a] == component_of[b]


def test_graph_certifications_name_rows_and_renamings():
    lines = _graph().certifications
    assert "row 2: C ~ B by embedded witness" in lines
    assert "row 3: V ~ U by embedded witness" in lines
    assert "row 16: I ~ H by ansatz search" in lines
    assert any(line.startswith("variable renaming:") for line in lines)


def _reference_same_node(ip_a, group_a, ip_b, group_b) -> bool:
    """The pairwise renaming test that `_renaming_key` replaced: degree, sorted
    weights and group order first, then a polynomial renaming that also
    carries group_a onto group_b."""
    if ((ip_a.degree, sorted(ip_a.weights), group_a.order)
            != (ip_b.degree, sorted(ip_b.weights), group_b.order)):
        return False
    for perm in matching_permutations(ip_a.poly, ip_b.poly):
        members = [GroupElement.from_numerators(
            tuple(g.num[perm.index(i)] for i in range(g.arity)), g.den) for g in group_a]
        if SymmetryGroup(members, group_a.arity) == group_b:
            return True
    return False


def _renamed(ip, group, perm):
    """(f, G) with variable i renamed to variable perm[i]."""
    def move(exps):
        out = [0] * len(perm)
        for i, e in enumerate(exps):
            out[perm[i]] = e
        return tuple(out)
    poly = Poly(ip.vars, {move(exps): c for exps, c in ip.poly.terms.items()})
    return build_invertible(poly), SymmetryGroup(
        [GroupElement.from_numerators(move(g.num), g.den) for g in group], group.arity)


def test_renaming_key_agrees_with_the_pairwise_reference():
    """Every pair the bundled graph registers (nodes and row endpoints), and a
    renamed copy of each: equal keys exactly when the reference finds a renaming."""
    catalog = _catalog()
    pairs = [(node.ip, node.group) for node in catalog.graph_nodes]
    for row in catalog.rows:
        source = row_source(row)
        pairs += [(source, SymmetryGroup.trivial(source.arity)), row_target(row)]
    pairs += [_renamed(ip, group, (2, 0, 1)) for ip, group in pairs]
    keys = [duality._renaming_key(ip, group) for ip, group in pairs]
    renamings = 0
    for (a, key_a), (b, key_b) in combinations(zip(pairs, keys), 2):
        same = _reference_same_node(*a, *b)
        assert (key_a == key_b) == same
        renamings += same and a[0].poly != b[0].poly
    # Each renamed copy differs from its original and is a renaming of it.
    assert renamings >= len(pairs) // 2


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
