"""Sectors, the correction class H, twisted products, and invariants."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product as cartesian

import pytest

from oja import orbifold
from oja.catalog import load_catalog, row_source, row_target
from oja.jacobian import fingerprint, quotient_algebra, trace_functional
from oja.linalg import rank, solve_linear
from oja.orbifold import (OrbifoldAlgebra, build_sectors, compute_H, fix_union_holds,
                          invariant_subalgebra, orbifold_algebra, twisted_algebra)
from oja.poly import Poly, grevlex_key, parse
from oja.scalar import CycScalar
from oja.symmetry import (GroupElement, SymmetryGroup, build_invertible, parse_group,
                          parse_invertible)
from test_linalg import sparse
from test_orbifold_reference import FullTwisted, full_twisted

XYZ = ("x", "y", "z")


def _setup(text: str, generator: str | None):
    ip = build_invertible(parse(text, XYZ))
    if generator is None:
        group = SymmetryGroup.trivial(3)
    else:
        group = SymmetryGroup([GroupElement.parse(generator)], 3)
    return ip, group


# The seven orbifold algebras appearing as right-hand sides of the reduced
# duality rows, with their headline twisted-sector product.
CATALOG = [
    ("x^8+y^3+z^2", "1/2,0,1/2", 10, "16*x^6"),
    ("x^6*y+y^3+z^2", "1/2,0,1/2", 11, "12*x^4*y"),
    ("x^5*y+y^2+z^3", "1/2,1/2,0", 12, "10*x^3*y"),
    ("x^4+x*y^4+z^2", "0,1/2,1/2", 11, "8*x*y^2"),
    ("x^4+y^3+z^3", "0,2/3,1/3", 12, "9*y*z"),
    ("x^4+y^3*z+z^2", "0,1/2,1/2", 12, "6*y*z"),
    ("x^5+y^4+z^2", "0,1/2,1/2", 12, "8*y^2"),
]


def _generator(group: SymmetryGroup) -> GroupElement:
    for g in group:
        if not g.is_identity():
            return g
    return GroupElement.identity(3)


# --- sectors ---------------------------------------------------------------


def test_sectors_of_the_order_two_example():
    ip, group = _setup("x^8+y^3+z^2", "1/2,0,1/2")
    sectors = build_sectors(ip, group)
    g = _generator(group)
    assert sectors[GroupElement.identity(3)].algebra.mu == 14
    assert sectors[g].fixed == (1,)
    assert sectors[g].algebra.f == parse("y^3", ("y",))
    assert sectors[g].algebra.mu == 2
    assert sectors[g].parity == 0


def test_sectors_trivial_group():
    ip, group = _setup("x^4+y^3+x*z^2", None)
    sectors = build_sectors(ip, group)
    assert len(sectors) == 1
    assert sectors[GroupElement.identity(3)].algebra.mu == 10


def test_sectors_of_the_order_three_example():
    ip, group = _setup("x^4+y^3+z^3", "0,2/3,1/3")
    sectors = build_sectors(ip, group)
    dims = sorted(s.algebra.mu for s in sectors.values())
    assert dims == [3, 3, 12]


def test_group_scope_rejections():
    ip, _ = _setup("x^4+y^3+z^3", None)
    quartic = build_invertible(parse("x^4+y^4+z^2", XYZ))
    with pytest.raises(ValueError, match="order 4"):
        build_sectors(quartic, SymmetryGroup(
            [GroupElement.parse("1/4,1/4,1/2")], 3))
    e14 = build_invertible(parse("x^8+y^3+z^2", XYZ))
    for text in ("1/2,0,0", "1/3,0,2/3"):  # in G_f but not SL; outside G_f
        with pytest.raises(ValueError) as info:
            build_sectors(e14, SymmetryGroup([GroupElement.parse(text)], 3))
        assert str(info.value) == f"<{text}> is not a special-linear symmetry group of {e14.poly}"


def _refusal(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_a_hand_built_group_is_refused_in_the_words_of_group_text():
    """`orbifold_algebra` reaches the group policy through `check_group`, so a
    group that never passed `parse_group` is refused as its text would be."""
    ip = parse_invertible("x1^8+x2^3+x3^2")
    outside = SymmetryGroup([GroupElement((Fraction(1, 2), 0, 0))], 3)
    assert _refusal(lambda: orbifold_algebra(ip, outside)) \
        == _refusal(lambda: parse_group(["1/2,0,0"], ip)) \
        == "<1/2,0,0> is not a special-linear symmetry group of x1^8 + x2^3 + x3^2"
    narrow = SymmetryGroup([GroupElement.parse("1/2,1/2")], 2)
    assert _refusal(lambda: orbifold_algebra(ip, narrow)) \
        == _refusal(lambda: parse_group(["1/2,1/2"], ip)) \
        == "group element (1/2,1/2) has 2 phases, expected 3"
    assert _refusal(lambda: orbifold_algebra(ip, SymmetryGroup.trivial(2))) \
        == "group element (0,0) has 2 phases, expected 3"
    order_four = SymmetryGroup([GroupElement.parse("1/4,0,1/4")], 3)
    assert _refusal(lambda: orbifold_algebra(ip, order_four)) == (
        "unsupported group of order 4: only the trivial group "
        "and cyclic groups of order 2 or 3 are in scope")


def test_unit_guard_rejects_free_cyclic_action():
    # (1/3,1/3,1/3) on the Fermat cubic is an SL symmetry of order 3, but its
    # square has empty fixed locus and the sign conventions break unitality;
    # the construction refuses rather than returning a non-unital product.
    # The full reference build shows the products the guard refuses.
    ip = build_invertible(parse("x^3+y^3+z^3", XYZ))
    group = SymmetryGroup([GroupElement.parse("1/3,1/3,1/3")], 3)
    with pytest.raises(ValueError) as info:
        twisted_algebra(ip, group)
    assert str(info.value) == ("v_id is not a two-sided unit for this group configuration; "
                               "the product formula does not apply")
    T = full_twisted(ip, group)
    one = T.identity_index
    assert any(T.basis_product(one, i) != {i: CycScalar.one()}
               or T.basis_product(i, one) != {i: CycScalar.one()} for i in range(T.dim))


def test_invariant_subalgebra_rejects_a_product_leaving_the_invariant_basis():
    # With H_{id,id} replaced by a non-invariant monomial, v_id · v_id leaves
    # the invariant basis, and the closure check must say so.
    ip, group = row_target(load_catalog().row(2))
    rule = twisted_algebra(ip, group)
    identity = GroupElement.identity(ip.arity)
    sector = rule.sectors[identity]
    outside = next(x for x in (sector.lift(m, ip.arity) for m in sector.algebra.basis)
                   if not all(q.fixes_monomial(x) for q in group))
    broken = rule._replace(correction={**rule.correction,
                                       (identity, identity): ((outside, CycScalar.one()),)})
    assert invariant_subalgebra(rule).dim == 10
    with pytest.raises(ValueError, match="not closed"):
        invariant_subalgebra(broken)


# --- fixed-locus bookkeeping -------------------------------------------


def test_fix_union():
    g2 = GroupElement.parse("1/2,0,1/2")
    g3 = GroupElement.parse("0,2/3,1/3")
    identity = GroupElement.identity(3)
    assert fix_union_holds(g2, g2)          # gh = id fixes everything
    assert not fix_union_holds(g3, g3)      # gh = g^2 fixes only x1
    assert fix_union_holds(identity, g3)
    assert fix_union_holds(g3, g3 * g3)


# --- the correction class H ----------------------------------------------


@pytest.mark.parametrize("text,gen,expected", [
    ("x^8+y^3+z^2", "1/2,0,1/2", "16*x^6"),
    ("x^6*y+y^3+z^2", "1/2,0,1/2", "12*x^4*y"),
    ("x^5*y+y^2+z^3", "1/2,1/2,0", "10*x^3*y"),
    ("x^4+x*y^4+z^2", "0,1/2,1/2", "8*x*y^2"),
    ("x^4+y^3*z+z^2", "0,1/2,1/2", "6*y*z"),
    ("x^5+y^4+z^2", "0,1/2,1/2", "8*y^2"),
])
def test_correction_class_order_two(text, gen, expected):
    ip, group = _setup(text, gen)
    g = _generator(group)
    assert compute_H(ip, group, g, g, build_sectors(ip, group)) == parse(expected, XYZ)


def test_correction_class_order_three():
    ip, group = _setup("x^4+y^3+z^3", "0,2/3,1/3")
    g = GroupElement.parse("0,2/3,1/3")
    sectors = build_sectors(ip, group)
    assert compute_H(ip, group, g, g * g, sectors) == parse("9*y*z", XYZ)
    assert compute_H(ip, group, g * g, g, sectors) == parse("9*y*z", XYZ)


def test_correction_class_with_identity_is_one():
    ip, group = _setup("x^8+y^3+z^2", "1/2,0,1/2")
    g = _generator(group)
    identity = GroupElement.identity(3)
    sectors = build_sectors(ip, group)
    assert compute_H(ip, group, identity, g, sectors) == parse("1", ("y",))
    assert compute_H(ip, group, g, identity, sectors) == parse("1", ("y",))


def _power_box_H(ip, group, g, h, sectors):
    """H_{g,h} and its uniqueness verdict, solved over the whole power box.

    A reference for `compute_H`, which solves on the standard basis only:
    every monomial below the pure-power leading monomials of the Groebner
    basis is a candidate, and a null vector counts against uniqueness only
    when its normal form is nonzero.
    """
    target = sectors[g * h].algebra
    cap = tuple(i for i in g.fixed_indices() if i in h.fixed_indices())
    f_cap = ip.poly.restrict(cap)
    mu_cap = quotient_algebra(f_cap, tuple(ip.weights[i] for i in cap), ip.degree).mu
    gh_fixed = sectors[g * h].fixed
    a = f_cap.hessian().embed(target.vars, [gh_fixed.index(i) for i in cap])
    a = target.normal_form(a.scale(CycScalar.from_rational(Fraction(1, mu_cap))))
    b = target.hess_nf.scale(CycScalar.from_rational(Fraction(1, target.mu)))
    degree = sum(ip.degree - 2 * ip.weights[i] for i in gh_fixed if i not in cap)
    characters = [[q.phases[i] for i in gh_fixed] for q in group if not q.is_identity()]

    bounds = [min(lm[i] for lm in target.gb.leading_monomials
                  if lm[i] and sum(lm) == lm[i])
              for i in range(len(target.vars))]
    candidates = sorted(
        (m for m in cartesian(*(range(bound) for bound in bounds))
         if target.weighted_degree(m) == degree
         and all(sum(p * e for p, e in zip(phases, m)) % 1 == 0 for phases in characters)),
        key=grevlex_key)
    zero, one = CycScalar.zero(), CycScalar.one()

    def coords(p: Poly) -> list[CycScalar]:
        nf = target.normal_form(p)
        return [nf.terms.get(m, zero) for m in target.basis]

    columns = [coords(a * Poly.monomial(target.vars, m)) for m in candidates]
    matrix = [[column[i] for column in columns] for i in range(target.mu)]
    particular, nullspace = solve_linear(matrix, coords(b), zero, one)
    unique = all(target.normal_form(Poly(target.vars, dict(zip(candidates, vec)))).is_zero()
                 for vec in nullspace)
    return target.normal_form(Poly(target.vars, dict(zip(candidates, particular)))), unique


def _catalog_pairs():
    catalog = load_catalog()
    pairs = [pytest.param(*row_target(row), id=f"row{row.index}") for row in catalog.rows]
    pairs += [pytest.param(node.ip, node.group, id=f"node-{node.label}")
              for node in catalog.graph_nodes]
    return pairs


@pytest.mark.parametrize("ip,group", _catalog_pairs())
def test_basis_solve_matches_the_power_box_reference(ip, group):
    sectors = build_sectors(ip, group)
    for g in group:
        for h in group:
            if not fix_union_holds(g, h):
                continue
            reference, unique = _power_box_H(ip, group, g, h, sectors)
            assert unique
            assert compute_H(ip, group, g, h, sectors) == reference


# --- products -------------------------------------------------------------


def test_headline_twisted_products():
    identity = GroupElement.identity(3)
    for text, gen, _, product_text in CATALOG:
        ip, group = _setup(text, gen)
        A = orbifold_algebra(ip, group)
        g = _generator(group)
        left = A.element(Poly.constant(XYZ, CycScalar.one()), g)
        partner = g.inverse()
        right = A.element(Poly.constant(XYZ, CycScalar.one()), partner)
        expected = A.element(parse(product_text, XYZ), identity)
        assert A.product(left, right) == expected, text


def test_square_of_order_three_twist_is_zero():
    ip, group = _setup("x^4+y^3+z^3", "0,2/3,1/3")
    A = orbifold_algebra(ip, group)
    g = GroupElement.parse("0,2/3,1/3")
    vg = A.element(Poly.constant(XYZ, CycScalar.one()), g)
    assert A.product(vg, vg) == {}


def test_mixed_sector_product():
    ip, group = _setup("x^8+y^3+z^2", "1/2,0,1/2")
    A = orbifold_algebra(ip, group)
    g = _generator(group)
    x2_id = A.element(parse("y", XYZ), GroupElement.identity(3))
    vg = A.element(Poly.constant(XYZ, CycScalar.one()), g)
    assert A.product(x2_id, vg) == A.element(parse("y", XYZ), g)


# --- invariant dimensions (the seven right-hand sides) ---------------------


def test_invariant_dimensions():
    dims = []
    for text, gen, expected_dim, _ in CATALOG:
        ip, group = _setup(text, gen)
        dims.append((orbifold_algebra(ip, group).dim, expected_dim))
    assert all(found == expected for found, expected in dims)
    assert [d for d, _ in dims] == [10, 11, 12, 11, 12, 12, 12]


def test_trivial_group_keeps_everything():
    ip, group = _setup("x^4+y^3+x*z^2", None)
    A = invariant_subalgebra(twisted_algebra(ip, group))
    assert A.dim == full_twisted(ip, group).dim == 10


# --- pairing ----------------------------------------------------------------


def test_pairing_values_order_two():
    ip, group = _setup("x^8+y^3+z^2", "1/2,0,1/2")
    A = orbifold_algebra(ip, group)
    g = _generator(group)
    identity = GroupElement.identity(3)
    v_id = A.identity_vector()
    socle = A.element(parse("x^6*y", XYZ), identity)
    vg = A.element(Poly.constant(XYZ, CycScalar.one()), g)
    x2_vg = A.element(parse("y", XYZ), g)
    assert A.pairing(v_id, socle) == CycScalar.from_rational(Fraction(1, 24))
    assert A.pairing(v_id, vg).is_zero()
    assert A.pairing(vg, x2_vg) == CycScalar.from_rational(Fraction(2, 3))


# --- exhaustive property suites over every catalog algebra ------------------


_ALGEBRAS: list[OrbifoldAlgebra | FullTwisted] = []


def _all_algebras() -> list[OrbifoldAlgebra | FullTwisted]:
    """Jac'(f,G), from the test-side full build, and Jac(f,G) for each catalog entry."""
    if not _ALGEBRAS:
        for text, gen, _, _ in CATALOG:
            ip, group = _setup(text, gen)
            _ALGEBRAS.append(full_twisted(ip, group))
            _ALGEBRAS.append(orbifold_algebra(ip, group))
    return _ALGEBRAS


def _dense_gram(A: OrbifoldAlgebra | FullTwisted) -> list[list[CycScalar]]:
    """The Gram matrix as dense rows: Jac(f,G) keeps sparse rows, the full reference dense ones."""
    return [[row.get(j, CycScalar.zero()) for j in range(A.dim)] if isinstance(row, dict) else row
            for row in A.gram]


def _sparse_product(A: OrbifoldAlgebra, row: dict, k: int) -> dict:
    out: dict[int, CycScalar] = {}
    for m, c in row.items():
        for l, s in A.basis_product(m, k).items():
            prev = out.get(l)
            out[l] = prev + c * s if prev is not None else c * s
    return {l: v for l, v in out.items() if not v.is_zero()}


def _sparse_product_right(A: OrbifoldAlgebra, i: int, row: dict) -> dict:
    out: dict[int, CycScalar] = {}
    for m, c in row.items():
        for l, s in A.basis_product(i, m).items():
            prev = out.get(l)
            out[l] = prev + c * s if prev is not None else c * s
    return {l: v for l, v in out.items() if not v.is_zero()}


def test_identity_is_two_sided_unit():
    for A in _all_algebras():
        one = A.identity_index
        for i in range(A.dim):
            assert A.basis_product(one, i) == {i: CycScalar.one()}
            assert A.basis_product(i, one) == {i: CycScalar.one()}


def test_products_are_graded_commutative():
    for A in _all_algebras():
        for i in range(A.dim):
            for j in range(i + 1):
                left = A.basis_product(i, j)
                right = A.basis_product(j, i)
                if (A.parities[i] * A.parities[j]) % 2 == 0:
                    assert left == right
                else:
                    assert left == {k: -c for k, c in right.items()}


def test_products_are_associative():
    for A in _all_algebras():
        for i in range(A.dim):
            for j in range(A.dim):
                left_row = A.basis_product(i, j)
                for k in range(A.dim):
                    assert _sparse_product(A, left_row, k) == \
                        _sparse_product_right(A, i, A.basis_product(j, k))


def test_parity_is_additive_on_products():
    for A in _all_algebras():
        for (i, j), row in A.structure.items():
            expected = (A.parities[i] + A.parities[j]) % 2
            for k, c in row.items():
                if not c.is_zero():
                    assert A.parities[k] == expected


def test_frobenius_identity_and_gram_shape():
    for A in _all_algebras():
        gram = _dense_gram(A)
        for i in range(A.dim):
            for j in range(A.dim):
                assert gram[i][j] == gram[j][i]
                if A.parities[i] != A.parities[j]:
                    assert gram[i][j].is_zero()
        for i in range(A.dim):
            for j in range(A.dim):
                row = A.basis_product(i, j)
                for k in range(A.dim):
                    lhs = sum((c * gram[l][k] for l, c in row.items()),
                              CycScalar.zero())
                    rhs = sum((c * gram[i][l] for l, c in A.basis_product(j, k).items()),
                              CycScalar.zero())
                    assert lhs == rhs


def test_gram_matrices_have_full_rank():
    for A in _all_algebras():
        assert rank(sparse(_dense_gram(A))) == A.dim


def test_invariant_bases_are_fixed_by_the_group():
    for text, gen, _, _ in CATALOG:
        ip, group = _setup(text, gen)
        A = orbifold_algebra(ip, group)
        for g, m in A.basis:
            fixed = A.sectors[g].fixed
            for q in group:
                shift = sum((q.phases[i] * e for i, e in zip(fixed, m)), Fraction(0))
                assert shift % 1 == 0


def test_fingerprint_protocol_on_orbifold_algebras():
    ip, group = _setup("x^8+y^3+z^2", "1/2,0,1/2")
    A = orbifold_algebra(ip, group)
    fp = fingerprint(A)
    assert fp.dim == 10
    assert fp.socle_dim == 1
    assert fp.powers[0] == 10


def test_json_dump_shape():
    ip, group = _setup("x^5+y^4+z^2", "0,1/2,1/2")
    A = orbifold_algebra(ip, group)
    data = A.to_json()
    assert data["invariant_only"] is True
    assert len(data["basis"]) == A.dim == 12
    assert len(data["gram"]) == 12
    assert all(len(entry) == 4 for entry in data["structure"])
    assert len(data["sectors"]) == 2


# --- Gram matrices against independent evaluations ------------------------------

_CATALOG = load_catalog()
_VARIANTS = [v for entry in _CATALOG.entries for v in entry.variants]


@pytest.mark.parametrize("text", _VARIANTS)
def test_trivial_group_gram_matches_the_trace_functional(text):
    ip = build_invertible(parse(text, ("x1", "x2", "x3")))
    A = orbifold_algebra(ip, SymmetryGroup.trivial(3))
    jac = quotient_algebra(ip.poly, ip.weights, ip.degree)
    trace = trace_functional(jac, jac.mu)  # |G| = 1, so λ([hess f]) = μ_f
    assert [m for _, m in A.basis] == list(jac.basis)
    expected = [[trace(Poly.monomial(ip.vars, a) * Poly.monomial(ip.vars, b))
                 for b in jac.basis] for a in jac.basis]
    assert A.gram == sparse(expected)


@pytest.mark.parametrize("node", _CATALOG.graph_nodes, ids=lambda node: node.label)
def test_graph_node_gram_is_symmetric_and_matches_the_pairing(node):
    A = orbifold_algebra(node.ip, node.group)

    def unit(i: int) -> dict[int, CycScalar]:
        return {i: CycScalar.one()}

    gram = _dense_gram(A)
    for i in range(A.dim):
        for j in range(A.dim):
            assert gram[i][j] == gram[j][i]
            assert gram[i][j] == A.trace(A.product(unit(i), unit(j)))


# --- graded dimensions from the Koszul complex ------------------------------------


def _graded_series(ip, group) -> Counter:
    """Degrees of Jac(f, G) with multiplicity, from weights and characters alone.

    The ∂ᵢf are G-eigenvectors of character χᵢ⁻¹ and form a regular sequence,
    so the character-graded Hilbert series of Jac(f^g) is
    ∏_{i∈Fix g} (1 − χᵢ⁻¹T^{1−qᵢ})/(1 − χᵢT^{qᵢ}) with qᵢ = wᵢ/d.  Its terms
    of trivial character, shifted by the age term Σ_{i∉Fix g} (1/2 − qᵢ) and
    summed over g, are the degrees.  A character is its vector of phases mod 1
    over the group, so everything stays exact and no Groebner basis is used.
    """
    q = [Fraction(w, ip.degree) for w in ip.weights]
    elements = list(group)
    out: Counter = Counter()
    for g in elements:
        fixed = g.fixed_indices()
        top = len(fixed)  # above every degree of Jac(f^g); the series is a polynomial
        trivial = (Fraction(0),) * len(elements)
        series = Counter({(Fraction(0), trivial): 1})
        for i in fixed:
            chi = tuple(h.phases[i] % 1 for h in elements)
            numerator = Counter()  # series · (1 − χᵢ⁻¹T^{1−qᵢ})
            for (deg, char), c in series.items():
                numerator[(deg, char)] += c
                numerator[(deg + 1 - q[i], tuple((a - b) % 1 for a, b in zip(char, chi)))] -= c
            series = Counter()  # numerator · Σ_k χᵢ^k T^{k·qᵢ}, up to degree `top`
            for (deg, char), c in numerator.items():
                while deg <= top:
                    series[(deg, char)] += c
                    deg, char = deg + q[i], tuple((a + b) % 1 for a, b in zip(char, chi))
        shift = sum(Fraction(1, 2) - q[i] for i in range(ip.arity) if i not in fixed)
        for (deg, char), c in series.items():
            if c and char == trivial:
                out[deg + shift] += c
    return out


@pytest.mark.parametrize("ip,group", [row_target(row) for row in _CATALOG.rows]
                         + [(node.ip, node.group) for node in _CATALOG.graph_nodes],
                         ids=[f"row{row.index}" for row in _CATALOG.rows]
                         + [node.label for node in _CATALOG.graph_nodes])
def test_degrees_match_the_character_graded_hilbert_series(ip, group):
    """A second computation of every graded dimension of Jac(f, G).

    It checks the sectors, the invariant basis and the age-shifted degrees,
    but only dimensions and degrees: it never reads a structure constant, so
    a wrong H_{g,h} passes it.
    """
    assert _graded_series(ip, group) == Counter(orbifold_algebra(ip, group).degrees)


@pytest.mark.parametrize("row", _CATALOG.rows, ids=lambda row: f"row{row.index}")
def test_source_and_target_series_agree(row):
    """The graded shadow of the duality (Ebeling–Takahashi, arXiv:1203.3947)."""
    source = row_source(row)
    assert _graded_series(source, SymmetryGroup.trivial(source.arity)) == \
        _graded_series(*row_target(row))


def _old_H_candidates(ip, group, g, h, sectors):
    """The candidate rule `solve_in_quotient` applied before `compute_H` chose:
    standard monomials of H's weighted degree that satisfy each non-identity
    character (num restricted to Fix(gh), den)."""
    target = sectors[g * h]
    cap = set(g.fixed_indices()) & set(h.fixed_indices())
    degree = sum(ip.degree - 2 * ip.weights[i] for i in target.fixed if i not in cap)
    characters = [(tuple(q.num[i] for i in target.fixed), q.den)
                  for q in group if not q.is_identity()]
    by_degree = [m for m in target.algebra.basis if target.algebra.weighted_degree(m) == degree]
    return by_degree, [m for m in by_degree if all(
        sum(a * e for a, e in zip(num, m)) % den == 0 for num, den in characters)]


def test_H_candidates_match_the_character_rule(monkeypatch):
    """`compute_H` passes `solve_in_quotient` the monomials the deleted
    character rule admitted, on every catalog row target and graph node."""
    cat = load_catalog()
    pairs = {}
    for ip, group in [row_target(row) for row in cat.rows] + [
            (node.ip, node.group) for node in cat.graph_nodes]:
        pairs.setdefault((ip.poly, group), (ip, group))
    assert len(pairs) == 21

    calls, solves = [], []
    real_H, real_solve = orbifold.compute_H, orbifold.solve_in_quotient

    def recording_H(ip, group, g, h, sectors):
        calls.append((ip, group, g, h, sectors))
        return real_H(ip, group, g, h, sectors)

    def recording_solve(algebra, a, b, candidates):
        solves.append((calls[-1], list(candidates)))
        return real_solve(algebra, a, b, candidates)

    monkeypatch.setattr(orbifold, "compute_H", recording_H)
    monkeypatch.setattr(orbifold, "solve_in_quotient", recording_solve)
    for ip, group in pairs.values():
        orbifold_algebra.__wrapped__(ip, group)  # past the cache, so every H is solved
    assert len(solves) == 8
    pruned = 0
    for context, candidates in solves:
        by_degree, invariant = _old_H_candidates(*context)
        assert candidates == invariant
        pruned += by_degree != invariant
    assert pruned == 2
