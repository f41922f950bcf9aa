"""Groebner bases, quotient algebras, traces, and quotient solving."""

from __future__ import annotations

import copy
import itertools
import random
from fractions import Fraction

import pytest

from oja import jacobian, linalg
from oja.catalog import load_catalog, row_source, row_target
from oja.duality import source_algebra
from oja.jacobian import (Fingerprint, fingerprint, groebner, has_isolated_singularity,
                          leading_monomial, milnor, quotient_algebra, solve_in_quotient,
                          trace_functional)
from oja.linalg import det_rational, rank, rref, solve_linear
from oja.orbifold import orbifold_algebra
from oja.poly import Poly, parse
from oja.scalar import CycScalar, SQRT2
from oja.symmetry import _weight_system, build_invertible
from test_linalg import sparse

XYZ = ("x", "y", "z")


def _p(text: str, vars=XYZ) -> Poly:
    return parse(text, vars)


def _partials(f: Poly) -> list[Poly]:
    return [f.partial_derivative(i) for i in range(len(f.vars))]


def _algebra(text: str, vars=XYZ):
    ip = build_invertible(_p(text, vars))
    return quotient_algebra(ip.poly, ip.weights, ip.degree)


# --- Groebner bases -----------------------------------------------------


def test_groebner_single_monomial():
    gb = groebner([_p("x^2", ("x",))])
    assert [str(g) for g in gb.generators] == ["x^2"]


def test_groebner_diagonal_ideals_are_monic_pure_powers():
    gb = groebner(_partials(_p("x^3+y^3", ("x", "y"))))
    assert [str(g) for g in gb.generators] == ["y^2", "x^2"]
    gb = groebner(_partials(_p("x^8+y^3+z^2")))
    assert [str(g) for g in gb.generators] == ["z", "y^2", "x^7"]


def _spoly(f: Poly, g: Poly) -> Poly:
    lead_f, lead_g = leading_monomial(f), leading_monomial(g)
    lcm = tuple(max(a, b) for a, b in zip(lead_f, lead_g))
    return (Poly.monomial(f.vars, tuple(l - e for l, e in zip(lcm, lead_f))) * f
            - Poly.monomial(g.vars, tuple(l - e for l, e in zip(lcm, lead_g))) * g)


def test_groebner_spolynomials_reduce_to_zero():
    # Post-hoc Buchberger criterion on two non-diagonal ideals.
    for text in ("x^6*y+y^3+z^2", "x^3*z+y^3+x*z^2", "x^4+x*y^4+z^2"):
        gb = groebner(_partials(_p(text)))
        gens = list(gb.generators)
        for i in range(len(gens)):
            for j in range(i):
                assert gb.reduce(_spoly(gens[i], gens[j])).is_zero()


def _invertible_exponent_matrices():
    """Every 3×3 exponent matrix with entries ≤ 2, one per polynomial, that
    `build_invertible`'s determinant and positive-weight checks accept."""
    seen = set()
    for entries in itertools.product(range(3), repeat=9):
        rows = frozenset(entries[3 * i:3 * i + 3] for i in range(3))
        if len(rows) < 3 or rows in seen:
            continue
        seen.add(rows)
        matrix = sorted(rows)
        if det_rational(matrix) == 0:
            continue
        try:
            _weight_system(matrix)
        except ValueError:
            continue
        yield matrix


def test_groebner_output_is_a_groebner_basis_of_every_small_jacobian_ideal():
    """Buchberger's criterion on the output, and ideal membership of every input.

    A chain criterion that mistakes a pending pair for a processed one drops
    S-pairs with nonzero remainders; this sweep caught it on 112 of the 272
    ideals.
    """
    matrices = list(_invertible_exponent_matrices())
    assert len(matrices) == 272
    one = CycScalar.one()
    for rows in matrices:
        f = Poly(("x1", "x2", "x3"), {r: one for r in rows})
        partials = _partials(f)
        gb = groebner(partials)
        gens = gb.generators
        assert all(gb.reduce(p).is_zero() for p in partials), str(f)
        assert all(gb.reduce(_spoly(gens[i], gens[j])).is_zero()
                   for i in range(len(gens)) for j in range(i)), str(f)


def test_groebner_basis_is_reduced():
    gb = groebner(_partials(_p("x^6*y+y^3+z^2")))
    leads = gb.leading_monomials
    for g in gb.generators:
        lead = leading_monomial(g)
        assert g.terms[lead] == CycScalar.one()
        for mono in g.terms:
            if mono != lead:
                assert not any(all(l <= m for l, m in zip(other, mono))
                               for other in leads)


def test_groebner_rejects_empty_input():
    with pytest.raises(ValueError):
        groebner([])


# --- quotient construction ----------------------------------------------


def test_quotient_basis_box():
    A = _algebra("x^8+y^3+z^2")
    assert A.mu == 14
    assert set(A.basis) == {(a, b, 0) for a in range(7) for b in range(2)}
    assert A.socle == (6, 1, 0)
    assert A.hess_nf == _p("672*x^6*y")


def test_quotient_socle_and_hessian_low_weight():
    A = _algebra("x^4+y^3+x*z^2")
    assert A.mu == 10
    assert A.weights == (6, 8, 9)
    assert A.degree == 24
    assert A.weighted_degree(A.socle) == 26
    # The standard representative of the top class: [x^3 y] = -(1/4) [y z^2].
    assert A.socle == (0, 1, 2)
    assert A.hess_nf == _p("-60*y*z^2")
    assert A.normal_form(_p("240*x^3*y")) == A.hess_nf


def test_quotient_arity_zero_is_the_base_field():
    A = quotient_algebra(Poly.constant((), CycScalar.zero()), (), 1)
    assert A.mu == 1
    assert A.basis == ((),)
    assert A.hess_coeff == CycScalar.one()


def test_socle_annihilated_by_every_variable():
    for text in ("x^8+y^3+z^2", "x^4+y^3+x*z^2", "x^6*y+y^3+z^2"):
        A = _algebra(text)
        for i in range(3):
            bump = tuple(e + (1 if j == i else 0) for j, e in enumerate(A.socle))
            assert A.normal_form(Poly.monomial(XYZ, bump)).is_zero()


def _catalog_quotient_algebras():
    """Each distinct Jac of a row source and of a sector of a row target or graph node."""
    catalog = load_catalog()
    keys = {}
    for ip, group in ([row_target(row) for row in catalog.rows]
                      + [(node.ip, node.group) for node in catalog.graph_nodes]):
        for sector in orbifold_algebra(ip, group).sectors.values():
            A = sector.algebra
            keys[(A.f, A.weights, A.degree)] = None
    for row in catalog.rows:
        ip = row_source(row)
        keys[(ip.poly, ip.weights, ip.degree)] = None
    return list(keys)


def test_normal_form_table_matches_groebner_reduction(monkeypatch):
    """Table coordinates equal a full reduction on twice the power box.

    Each algebra is built afresh, so its table starts from the basis alone;
    the Groebner basis then reduces only border monomials x_k·b (b a basis
    monomial), each once, so at most n·μ of them.
    """
    keys = _catalog_quotient_algebras()
    assert len(keys) == 31
    reduce = jacobian.GroebnerBasis.reduce
    reduced: list[Poly] = []
    monkeypatch.setattr(jacobian.GroebnerBasis, "reduce",
                        lambda gb, p: reduced.append(p) or reduce(gb, p))
    for f, weights, degree in keys:
        A = quotient_algebra.__wrapped__(f, weights, degree)
        bounds = jacobian._jacobian_ideal(f)[1]
        box = list(itertools.product(*(range(2 * b) for b in bounds)))
        expected = {m: {A.basis.index(b): c for b, c in
                        reduce(A.gb, Poly.monomial(f.vars, m)).terms.items()} for m in box}
        reduced.clear()
        assert {m: A.monomial_coords(m) for m in box} == expected, str(f)
        border = {tuple(e + (j == k) for j, e in enumerate(b))
                  for b in A.basis for k in range(len(f.vars))} - set(A.basis)
        monomials = [next(iter(p.terms)) for p in reduced]
        assert all(len(p.terms) == 1 for p in reduced)
        assert len(set(monomials)) == len(monomials) and set(monomials) <= border
        assert len(monomials) <= len(f.vars) * A.mu


# --- Milnor numbers -------------------------------------------------------


@pytest.mark.parametrize("text,mu", [
    ("x^8+y^3+z^2", 14),
    ("x^4+y^3+x*z^2", 10),
    ("x^3*y+y^3+x*z^2", 11),
    ("x^5+y^3+x*z^2", 12),
    ("x^4+y^2*z+x*z^2", 11),
    ("x^4+y^3+z^3", 12),
    ("x^5+y^4+z^2", 12),
])
def test_milnor_numbers(text, mu):
    f = _p(text)
    assert milnor(f) == mu
    # Weight-formula oracle mu = prod (d - w_i) / w_i.
    ip = build_invertible(f)
    expected = 1
    for w in ip.weights:
        expected *= Fraction(ip.degree - w, w)
    assert expected == mu


@pytest.mark.parametrize("p,q,r", [(2, 3, 7), (3, 3, 4), (2, 4, 5), (8, 3, 2)])
def test_milnor_brieskorn_pham(p, q, r):
    f = _p(f"x^{p}+y^{q}+z^{r}")
    assert milnor(f) == (p - 1) * (q - 1) * (r - 1)


def test_milnor_rejects_nonisolated():
    assert not has_isolated_singularity(_p("x^3+x^2*y", ("x", "y")))
    assert not has_isolated_singularity(_p("x^2*y^2", ("x", "y")))
    assert has_isolated_singularity(_p("x^4+y^3+x*z^2"))
    with pytest.raises(ValueError):
        milnor(_p("x^2*y^2", ("x", "y")))


# --- normal forms ----------------------------------------------------------


def test_normal_form_kills_ideal_members():
    A = _algebra("x^8+y^3+z^2")
    assert A.normal_form(_p("y^2")).is_zero()
    assert A.normal_form(_p("5*x^7+z")).is_zero()


def test_normal_form_of_hessian():
    A = _algebra("x^4+y^3+x*z^2")
    # [hess f] = 240 [x^3 y] as classes; the reduced form rewrites x^3.
    assert A.normal_form(A.f.hessian() - _p("240*x^3*y")).is_zero()
    assert A.normal_form(A.f.hessian()) == _p("-60*y*z^2")


def test_normal_form_idempotent_and_multiplicative():
    A = _algebra("x^4+y^3+x*z^2")
    rng = random.Random(7)
    monos = [(a, b, c) for a in range(4) for b in range(3) for c in range(3)]
    scalars = [CycScalar.from_rational(2), SQRT2, CycScalar.zeta(5),
               CycScalar.from_rational(Fraction(-1, 3))]
    for _ in range(8):
        p = Poly(XYZ, {m: rng.choice(scalars) for m in rng.sample(monos, 4)})
        q = Poly(XYZ, {m: rng.choice(scalars) for m in rng.sample(monos, 3)})
        assert A.normal_form(A.normal_form(p)) == A.normal_form(p)
        assert A.normal_form(p * q) == A.normal_form(A.normal_form(p) * A.normal_form(q))


# --- trace functional -------------------------------------------------------


def test_trace_normalization_full_group():
    A = _algebra("x^8+y^3+z^2")
    lam = trace_functional(A, 2 * A.mu)  # symmetry group of order 2
    assert lam(Poly.monomial(XYZ, A.socle)) == CycScalar.from_rational(Fraction(1, 24))
    assert lam(A.f.hessian()) == CycScalar.from_rational(28)


def test_trace_normalization_trivial_group():
    A = _algebra("x^4+y^3+x*z^2")
    lam = trace_functional(A, A.mu)
    assert lam(_p("x^3*y")) == CycScalar.from_rational(Fraction(1, 24))
    assert lam(A.f.hessian()) == CycScalar.from_rational(10)
    assert lam(Poly.constant(XYZ, CycScalar.one())).is_zero()


def test_trace_pairing_is_nondegenerate():
    for text in ("x^4+y^3+x*z^2", "x^4+y^3+z^3"):
        A = _algebra(text)
        lam = trace_functional(A, A.mu)
        gram = [[lam(Poly.monomial(XYZ, a) * Poly.monomial(XYZ, b)) for b in A.basis]
                for a in A.basis]
        assert rank(sparse(gram)) == A.mu


# --- solving in the quotient -------------------------------------------------


def _candidates(A, degree, characters=()):
    """Standard monomials of one weighted degree with Σᵢ num[i]·m[i] ≡ 0 (mod den)
    for every character (num, den)."""
    return [m for m in A.basis if A.weighted_degree(m) == degree
            and all(sum(a * e for a, e in zip(num, m)) % den == 0 for num, den in characters)]


def test_solve_recovers_twisted_sector_product_scalar():
    A = _algebra("x^8+y^3+z^2")
    a = _p("3*y")            # [hess(y^3)] / mu of the x2-sector
    b = _p("48*x^6*y")       # [hess(f)] / mu of f
    h, unique = solve_in_quotient(A, a, b, _candidates(A, 18))
    assert h == _p("16*x^6")
    assert unique


def test_solve_identity_returns_normal_form():
    A = _algebra("x^4+y^3+x*z^2")
    one = Poly.constant(XYZ, CycScalar.one())
    h, unique = solve_in_quotient(A, one, _p("y^3+x^3*y"), A.basis)
    assert h == A.normal_form(_p("y^3+x^3*y"))
    assert unique


def test_solve_three_cyclic_sector():
    A = _algebra("x^4+y^3+z^3")
    h, unique = solve_in_quotient(A, _p("4*x^2"), _p("36*x^2*y*z"), _candidates(A, 8))
    assert h == _p("9*y*z")
    assert unique


def test_solve_with_degree_and_invariance():
    A = _algebra("x^4+y^3+z^3")
    characters = [((0, 2, 1), 3)]  # the phases (0, 2/3, 1/3)
    h, unique = solve_in_quotient(A, _p("4*x^2"), _p("36*x^2*y*z"),
                                  _candidates(A, 8, characters))
    assert h == _p("9*y*z")
    assert unique


def test_solve_reports_no_solution():
    A = _algebra("x^8+y^3+z^2")
    with pytest.raises(ValueError):
        solve_in_quotient(A, Poly.monomial(XYZ, A.socle), Poly.constant(XYZ, CycScalar.one()),
                          A.basis)


def test_solve_flags_non_unique_classes():
    A = _algebra("x^8+y^3+z^2")
    h, unique = solve_in_quotient(A, Poly.monomial(XYZ, A.socle), Poly.zero(XYZ), A.basis)
    assert h.is_zero()
    assert not unique


# --- fingerprints --------------------------------------------------------------


def _milnor_algebra(text: str, vars=XYZ):
    return source_algebra(build_invertible(_p(text, vars)))


def test_fingerprint_of_e14_jacobian():
    A = _milnor_algebra("x^8+y^3+z^2")
    fp = fingerprint(A)
    assert fp == Fingerprint(14, (14, 13, 11, 9, 7, 5, 3, 1, 0), 1)


def test_fingerprint_base_field():
    A = _milnor_algebra("x1^2", ("x1",))
    assert fingerprint(A) == Fingerprint(1, (1, 0), 1)


def test_fingerprint_single_variable():
    A = _milnor_algebra("y^3", ("y",))
    assert fingerprint(A) == Fingerprint(2, (2, 1, 0), 1)


def _dense_fingerprint(algebra) -> Fingerprint:
    """Reference: m^k and the socle over all coordinates at once, with no blocks."""
    n = algebra.dim
    zero, one_ = CycScalar.zero(), CycScalar.one()
    generators = [i for i in range(n) if i != algebra.identity_index]

    def span(vectors):
        if not vectors:
            return []
        reduced, pivots = rref([list(v) for v in vectors])
        return [reduced[i] for i in range(len(pivots))]

    def times_basis(i, vec):
        out = [zero] * n
        for j, c in enumerate(vec):
            if not c.is_zero():
                for k, s in algebra.basis_product(i, j).items():
                    out[k] = out[k] + c * s
        return out

    powers = [n]
    current = span([[one_ if j == i else zero for j in range(n)] for i in generators])
    while current:
        powers.append(len(current))
        current = span([times_basis(i, vec) for i in generators for vec in current])
    powers.append(0)
    if not generators:
        return Fingerprint(n, tuple(powers), n)
    rows = []
    for i in generators:
        mats = [algebra.basis_product(i, j) for j in range(n)]
        for k in range(n):
            rows.append([mats[j].get(k, zero) for j in range(n)])
    _, nullspace = solve_linear(rows, [zero] * len(rows), zero, one_)
    return Fingerprint(n, tuple(powers), len(nullspace))


def _catalog_algebras():
    catalog = load_catalog()
    cases = [pytest.param(lambda n=node: orbifold_algebra(n.ip, n.group), id=f"node-{node.label}")
             for node in catalog.graph_nodes]
    cases += [pytest.param(lambda r=row: orbifold_algebra(*row_target(r)), id=f"row{row.index}")
              for row in catalog.rows]
    cases += [pytest.param(lambda r=row: source_algebra(row_source(r)), id=f"source{row.index}")
              for row in catalog.rows]
    return cases


@pytest.mark.parametrize("build", _catalog_algebras())
def test_graded_fingerprint_matches_the_dense_reference(build):
    A = build()
    jacobian._check_grading(A)
    assert len(set(A.degrees)) > 1  # graded with more than one degree
    assert fingerprint(A) == _dense_fingerprint(A)


@pytest.mark.parametrize("build", _catalog_algebras())
def test_fingerprint_runs_no_dense_elimination(build, monkeypatch):
    """The fingerprint is sparse echelon work only: it never reaches `rref`."""
    A = build()  # the construction may solve through rref; the fingerprint may not

    def no_rref(*args):
        raise AssertionError("fingerprint called the dense rref")

    monkeypatch.setattr(linalg, "rref", no_rref)
    assert fingerprint(A).dim == A.dim


def test_inconsistent_degrees_are_rejected():
    """Every algebra oja builds is graded; a broken grading is an error, not a
    second, ungraded fingerprint path."""
    A = copy.copy(orbifold_algebra(*row_target(load_catalog().row(1))))
    A.degrees = tuple(range(A.dim))  # distinct degrees that some product breaks
    with pytest.raises(ValueError, match="breaks the weighted grading"):
        jacobian._check_grading(A)
    with pytest.raises(ValueError, match="breaks the weighted grading"):
        fingerprint(A)


def test_jacobian_ideal_is_computed_once_per_polynomial(monkeypatch):
    calls = []
    original = jacobian.groebner

    def counting_groebner(gens):
        calls.append(gens)
        return original(gens)

    monkeypatch.setattr(jacobian, "groebner", counting_groebner)
    f = _p("x^11+y^4+z^2")  # used by no other test, so no memo entry exists yet
    assert has_isolated_singularity(f)
    assert milnor(f) == 10 * 3 * 1
    algebra = quotient_algebra(f, (4, 11, 22), 44)
    assert algebra.mu == 30
    assert len(calls) == 1
