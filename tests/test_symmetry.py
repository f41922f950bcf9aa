from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from oja import symmetry
from oja.catalog import load_catalog, row_target
from oja.linalg import det_rational, smith_diagonal
from oja.poly import Poly, parse
from oja.symmetry import (
    GroupElement,
    SymmetryGroup,
    _weight_system,
    build_invertible,
    is_sl_symmetry,
    max_symmetry_group,
    parse_invertible,
    same_up_to_variable_permutation,
    sl_subgroup,
    transpose,
)

XYZ = ("x", "y", "z")


def _ip(text: str, vars=XYZ):
    return build_invertible(parse(text, vars))


# --- group elements ---------------------------------------------------


def test_group_element_parse_and_str_round_trip():
    g = GroupElement.parse("1/2,0,1/2")
    assert g.phases == (Fraction(1, 2), Fraction(0), Fraction(1, 2))
    assert str(g) == "1/2,0,1/2"
    assert GroupElement.parse(str(g)) == g


def test_group_element_parse_rejects_junk():
    with pytest.raises(ValueError):
        GroupElement.parse("1/2,zzz")


def test_group_element_normalization_and_inverse():
    g = GroupElement((Fraction(3, 2), Fraction(-1, 3), Fraction(0)))
    assert g.phases == (Fraction(1, 2), Fraction(2, 3), Fraction(0))
    assert g.compose(g.inverse()).is_identity()
    assert g.inverse().phases == (Fraction(1, 2), Fraction(1, 3), Fraction(0))


def test_group_element_order_age_fixed():
    g = GroupElement.parse("0,2/3,1/3")
    assert g.order() == 3
    assert g.age() == 1
    assert g.fixed_indices() == (0,)
    assert (g**3).is_identity()
    assert GroupElement.identity(3).order() == 1


# --- invertible polynomials -------------------------------------------


def test_build_invertible_weights():
    ip = _ip("x^4+y^3+x*z^2")
    assert ip.weights == (6, 8, 9)
    assert ip.degree == 24
    assert set(ip.exponents) == {(4, 0, 0), (0, 3, 0), (1, 0, 2)}
    assert ip.poly.is_weighted_homogeneous(ip.weights, ip.degree)


def test_build_invertible_two_variable_loop():
    # x^2 y + y^2 x: weights (1, 1) over degree 3, group of order |det| = 3
    ip = build_invertible(parse("x^2*y + y^2*x", ("x", "y")))
    assert ip.weights == (1, 1)
    assert ip.degree == 3
    assert max_symmetry_group(ip).order == 3


def test_build_invertible_rejects_wrong_monomial_count():
    with pytest.raises(ValueError, match="exactly 3 monomials"):
        build_invertible(parse("x^4+y^3", XYZ))


def test_build_invertible_rejects_singular_exponents():
    with pytest.raises(ValueError, match="singular"):
        build_invertible(parse("x*y + x^2*y^2", ("x", "y")))


def test_build_invertible_rejects_nonpositive_weights():
    with pytest.raises(ValueError, match="positive weight"):
        build_invertible(parse("x*y + y", ("x", "y")))


def _cross(u, v) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _cofactors(rows) -> tuple[int, tuple[int, ...]]:
    """det E and adj(E)·(1, ..., 1) for a 2×2 or 3×3 E, by cofactors."""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c, (d - b, a - c)
    r0, r1, r2 = rows
    columns = zip(_cross(r1, r2), _cross(r2, r0), _cross(r0, r1))  # cofactor columns
    return sum(map(math.prod, zip(r0, _cross(r1, r2)))), tuple(map(sum, columns))


def _fraction_weight_system(rows):
    """The weight system from w = E⁻¹·(1, ..., 1) in `Fraction`s, by Cramer's rule."""
    det, adjugate_sum = _cofactors(rows)
    w = [Fraction(x, det) for x in adjugate_sum]
    d = math.lcm(*(x.denominator for x in w))
    weights = tuple(int(x * d) for x in w)
    if any(x <= 0 for x in weights):
        raise ValueError(f"no positive weight system (got {weights} over degree {d})")
    return weights, d


def _outcome(function, rows):
    try:
        return function(rows)
    except ValueError as exc:
        return str(exc)


def test_fraction_free_weight_systems_match_the_fraction_reference():
    """Every 2×2 matrix with entries ≤ 6, and every set of three distinct rows
    with entries ≤ 3 (row order changes neither the weights nor |det|)."""
    matrices = list(itertools.product(itertools.product(range(7), repeat=2), repeat=2))
    matrices += itertools.combinations(itertools.product(range(4), repeat=3), 3)
    positive = 0
    for rows in matrices:
        det = _cofactors(rows)[0]
        assert det_rational(rows) == Fraction(det), rows
        if det == 0:
            assert _outcome(_weight_system, rows) == "exponent matrix is singular"
            continue
        expected = _outcome(_fraction_weight_system, rows)
        assert _outcome(_weight_system, rows) == expected, rows
        positive += not isinstance(expected, str)
    assert positive == 882 + 5672


def test_transpose_spec_example():
    ip = _ip("x^4+y^3+x*z^2")
    assert transpose(ip).poly == parse("x^4*z + y^3 + z^2", XYZ)


def test_transpose_is_an_involution():
    for text in ("x^4+y^3+x*z^2", "x^3*y+y^3+x*z^2", "x^5+x*y^3+z^2", "x^4+y^2*z+x*z^2"):
        ip = _ip(text)
        tt = transpose(transpose(ip))
        assert tt.poly == ip.poly
        assert tt.exponents == ip.exponents


def test_transpose_diagonal_fixed_points():
    ip = _ip("x^8+y^3+z^2")
    assert transpose(ip).poly == ip.poly


@pytest.mark.parametrize("f, textbook", [
    ("x^2+y^3", "x^2+y^3"),  # Fermat: its own transpose
    ("x^5*y+y^3+z^2", "x^5+x*y^3+z^2"),  # chain
    ("x^2*y+y^3*z+z^4*x", "x^2*z+x*y^3+y*z^4"),  # loop, reversed
])
def test_transpose_is_the_textbook_transpose_up_to_renaming_variables(f, textbook):
    """Rows pair with variables by descending grevlex, so only the renaming
    class is guaranteed: `x^2+y^3` comes out as `x^3+y^2`."""
    vars = XYZ[:2] if "z" not in f else XYZ
    assert same_up_to_variable_permutation(transpose(_ip(f, vars)).poly,
                                           parse(textbook, vars))


# --- symmetry groups ---------------------------------------------------


def test_max_symmetry_group_orders():
    assert max_symmetry_group(_ip("x^8+y^3+z^2")).order == 48
    assert max_symmetry_group(_ip("x^4+y^3+x*z^2")).order == 24


def test_membership_hashes_each_element_once(monkeypatch):
    """A group hashes its elements into a member set once, not on every test."""
    group = max_symmetry_group(_ip("x^8+y^3+z^2"))
    queries = [*group.elements[::10], *(GroupElement.parse(f"1/{k},0,0") for k in (3, 5, 7, 9, 11))]
    hashes = []
    real_hash = GroupElement.__hash__

    def counting_hash(self):
        hashes.append(self)
        return real_hash(self)

    monkeypatch.setattr(GroupElement, "__hash__", counting_hash)
    assert [g in group for g in queries] == [True] * 5 + [False] * 5
    assert len(hashes) <= group.order + len(queries)


def test_max_symmetry_group_arity_one():
    ip = build_invertible(parse("x^2", ("x",)))
    group = max_symmetry_group(ip)
    assert {g.phases for g in group} == {(Fraction(0),), (Fraction(1, 2),)}


def test_max_symmetry_group_checks_its_exponent_against_the_smith_form(monkeypatch):
    """x^4+y^3+z^3 has SNF [1, 3, 12]: |G_f| = 36 and exponent 12.  A
    diagonal with the same product but another largest factor must fail."""
    ip = _ip("x^4+y^3+z^3")
    assert smith_diagonal(ip.exponents) == [1, 3, 12]
    assert max(g.order() for g in max_symmetry_group(ip)) == 12
    monkeypatch.setattr(symmetry, "smith_diagonal", lambda matrix: [1, 1, 36])
    with pytest.raises(AssertionError, match="exponent 12 disagree"):
        max_symmetry_group(ip)


def test_every_group_element_fixes_the_polynomial():
    ip = _ip("x^4+x*y^4+z^2")
    for g in max_symmetry_group(ip):
        for row in ip.exponents:
            assert sum(e * p for e, p in zip(row, g.phases)).denominator == 1


def test_max_symmetry_group_checks_its_generators_not_its_elements(monkeypatch):
    """Fixing x^{E_i} is a character of G_f, so the columns of E⁻¹ decide it
    for the group: 4 generators × 4 monomials, not 16⁴ elements × 4."""
    ip = parse_invertible("x1^16+x2^16+x3^16+x4^16")
    calls = []
    original = GroupElement.fixes_monomial

    def counting(self, m):
        calls.append(m)
        return original(self, m)

    monkeypatch.setattr(GroupElement, "fixes_monomial", counting)
    assert max_symmetry_group(ip).order == 16 ** 4
    assert len(calls) <= 16


def test_sl_subgroup_of_fermat_e14():
    group = max_symmetry_group(_ip("x^8+y^3+z^2"))
    sl = sl_subgroup(group)
    assert sl.order == 2
    assert GroupElement.parse("1/2,0,1/2") in sl


def test_sl_subgroup_of_q10_source_is_trivial():
    sl = sl_subgroup(max_symmetry_group(_ip("x^4+y^3+x*z^2")))
    assert sl.order == 1


def test_sl_subgroup_contains_z3_for_fermat_u12():
    sl = sl_subgroup(max_symmetry_group(_ip("x^4+y^3+z^3")))
    assert GroupElement.parse("0,2/3,1/3") in sl
    assert all(g.age().denominator == 1 for g in sl)


_VARIANTS = [v for entry in load_catalog().entries for v in entry.variants]


@pytest.mark.parametrize("text", _VARIANTS)
def test_sl_predicate_accepts_exactly_the_sl_subgroup(text):
    ip = build_invertible(parse(text, ("x1", "x2", "x3")))
    for candidate in (ip, transpose(ip)):
        group = max_symmetry_group(candidate)
        sl = set(sl_subgroup(group))
        for g in group:
            assert is_sl_symmetry(candidate, g) == (g in sl), (str(candidate.poly), str(g))


def test_sl_subgroup_carries_generators_that_generate_it():
    """Trivial, kept, cyclic and closure-sweep subgroups alike: the stored
    generators generate the subgroup, and none is the identity."""
    ips = [build_invertible(parse(text, ("x1", "x2", "x3"))) for text in _VARIANTS]
    ips += [node.ip for node in load_catalog().graph_nodes]
    ips += [parse_invertible(text)
            for text in ("x1^3+x2^3+x3^3", "x1^4+x2^4+x3^4", "x1^2+x2^2+x3^2+x4^2")]
    for ip in ips:
        sl = sl_subgroup(max_symmetry_group(ip))
        assert SymmetryGroup(sl.generators, ip.arity) == sl, str(ip.poly)
        assert not any(g.is_identity() for g in sl.generators), str(ip.poly)


def test_sl_predicate_rejects_phase_vectors_outside_the_symmetry_group():
    ip = build_invertible(parse("x1^4+x2^3+x3^3", ("x1", "x2", "x3")))
    group = set(max_symmetry_group(ip))
    for text in ("1/4,1/4,1/2", "0,1/2,1/2"):
        g = GroupElement.parse(text)
        assert g not in group
        assert g.age().denominator == 1  # integral age alone does not suffice
        assert not is_sl_symmetry(ip, g)
    # Every phase vector on the 1/12 grid: accepted exactly on SL ∩ G_f.
    sl = set(sl_subgroup(max_symmetry_group(ip)))
    grid = [GroupElement((Fraction(a, 12), Fraction(b, 12), Fraction(c, 12)))
            for a in range(12) for b in range(12) for c in range(12)]
    assert {g for g in grid if is_sl_symmetry(ip, g)} == sl


def _is_sl_by_phases(ip, g) -> bool:
    return g.age().denominator == 1 and all(
        sum(e * p for e, p in zip(row, g.phases)).denominator == 1 for row in ip.exponents)


def test_sl_predicate_matches_the_fraction_definition_on_catalog_groups():
    catalog = load_catalog()
    pairs = [row_target(row) for row in catalog.rows]
    pairs += [(node.ip, node.group) for node in catalog.graph_nodes]
    pairs += [(ip, max_symmetry_group(ip))
              for ip in (build_invertible(parse(text, ("x1", "x2", "x3"))) for text in _VARIANTS)]
    checked = 0
    for ip, group in pairs:
        for g in group:
            assert is_sl_symmetry(ip, g) == _is_sl_by_phases(ip, g), (str(ip.poly), str(g))
            checked += 1
    assert len(pairs) == 20 + 23 + 21 and checked == 616


def test_a_generated_group_is_special_linear_iff_its_generators_are():
    """Both SL conditions are characters of G_f, so for every cyclic subgroup
    <h> of every variant's G_f the generators decide what all elements do."""
    verdicts = set()
    for text in _VARIANTS:
        ip = build_invertible(parse(text, ("x1", "x2", "x3")))
        for h in max_symmetry_group(ip):
            group = SymmetryGroup([h], ip.arity)
            by_generators = all(is_sl_symmetry(ip, g) for g in group.generators)
            assert by_generators == all(is_sl_symmetry(ip, g) for g in group), (text, str(h))
            verdicts.add(by_generators)
    assert len(_VARIANTS) == 21 and verdicts == {True, False}


def test_age_sum_rule():
    # age(g) + age(g^{-1}) = N - N_g for every non-identity g
    for text in ("x^8+y^3+z^2", "x^4+y^3+z^3", "x^4+x*y^4+z^2"):
        ip = _ip(text)
        for g in max_symmetry_group(ip):
            if g.is_identity():
                continue
            n_free = ip.arity - len(g.fixed_indices())
            assert g.age() + g.inverse().age() == n_free


def test_generated_subgroup_and_membership():
    g = GroupElement.parse("1/2,0,1/2")
    group = SymmetryGroup([g], 3)
    assert group.order == 2
    assert g in group
    assert set(group) <= set(max_symmetry_group(_ip("x^8+y^3+z^2")))
    trivial = SymmetryGroup.trivial(3)
    assert trivial.order == 1
    assert set(trivial) <= set(group)


def test_every_group_oja_builds_is_the_closure_of_its_generators():
    """G_f and its SL subgroup for each variant and node polynomial, and every
    row and node group of the catalog: closed under composition, and equal to
    the group its stored generators generate."""
    catalog = load_catalog()
    ips = [parse_invertible(text) for text in _VARIANTS]
    ips += [node.ip for node in catalog.graph_nodes]
    groups = [(ip, group) for ip in ips
              for group in (max_symmetry_group(ip), sl_subgroup(max_symmetry_group(ip)))]
    groups += [row_target(row) for row in catalog.rows]
    groups += [(node.ip, node.group) for node in catalog.graph_nodes]
    assert len(groups) == 2 * (21 + 23) + 20 + 23
    for ip, group in groups:
        assert group.arity == ip.arity, str(ip.poly)
        assert {g * h for g in group for h in group} == set(group), str(ip.poly)
        assert SymmetryGroup(group.generators, group.arity) == group, str(ip.poly)


def test_a_group_holds_the_powers_of_its_generators():
    """Listing an element without its square still builds the whole cyclic group."""
    g = GroupElement.parse("1/3,2/3,0")
    group = SymmetryGroup([GroupElement.identity(3), g], 3)
    assert group.order == 3
    assert g * g in group
    assert group.generators == (g,)


def test_group_iteration_is_deterministic_identity_first():
    group = SymmetryGroup([GroupElement.parse("0,2/3,1/3")], 3)
    elems = list(group)
    assert elems[0].is_identity()
    assert [g.phases for g in elems] == sorted(g.phases for g in elems)


def test_same_up_to_variable_permutation():
    f = parse("x^3+y^4+y*z^2", XYZ)
    g = parse("x^4+y^3+x*z^2", XYZ)  # swap x and y in f
    assert same_up_to_variable_permutation(f, g)
    assert not same_up_to_variable_permutation(f, parse("x^3+y^4+z^2", XYZ))
    assert same_up_to_variable_permutation(parse("x^4*z+y^3+z^2", XYZ),
                                           parse("x^4*y+y^2+z^3", XYZ))
