"""Groebner bases, quotient algebras, traces, and quotient solving."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oja import jacobian
from oja.duality import source_algebra
from oja.jacobian import (Fingerprint, fingerprint, groebner, has_isolated_singularity,
                          leading_monomial, milnor, quotient_algebra, solve_in_quotient,
                          trace_functional)
from oja.linalg import rank
from oja.poly import Poly, parse
from oja.scalar import CycScalar, SQRT2
from oja.symmetry import build_invertible

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


def test_groebner_spolynomials_reduce_to_zero():
    # Post-hoc Buchberger criterion on two non-diagonal ideals.
    for text in ("x^6*y+y^3+z^2", "x^3*z+y^3+x*z^2", "x^4+x*y^4+z^2"):
        gb = groebner(_partials(_p(text)))
        gens = list(gb.generators)
        for i in range(len(gens)):
            for j in range(i):
                lead_i, lead_j = leading_monomial(gens[i]), leading_monomial(gens[j])
                lcm = tuple(max(a, b) for a, b in zip(lead_i, lead_j))
                s = (Poly.monomial(XYZ, tuple(l - e for l, e in zip(lcm, lead_i))) * gens[i]
                     - Poly.monomial(XYZ, tuple(l - e for l, e in zip(lcm, lead_j))) * gens[j])
                assert gb.reduce(s).is_zero()


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
        assert rank(gram) == A.mu


# --- solving in the quotient -------------------------------------------------


def test_solve_recovers_twisted_sector_product_scalar():
    A = _algebra("x^8+y^3+z^2")
    a = _p("3*y")            # [hess(y^3)] / mu of the x2-sector
    b = _p("48*x^6*y")       # [hess(f)] / mu of f
    h, unique = solve_in_quotient(A, a, b, degree=18)
    assert h == _p("16*x^6")
    assert unique


def test_solve_identity_returns_normal_form():
    A = _algebra("x^4+y^3+x*z^2")
    one = Poly.constant(XYZ, CycScalar.one())
    h, unique = solve_in_quotient(A, one, _p("y^3+x^3*y"))
    assert h == A.normal_form(_p("y^3+x^3*y"))
    assert unique


def test_solve_three_cyclic_sector():
    A = _algebra("x^4+y^3+z^3")
    h, unique = solve_in_quotient(A, _p("4*x^2"), _p("36*x^2*y*z"), degree=8)
    assert h == _p("9*y*z")
    assert unique


def test_solve_with_degree_and_invariance():
    A = _algebra("x^4+y^3+z^3")
    phases = [(Fraction(0), Fraction(2, 3), Fraction(1, 3))]
    h, unique = solve_in_quotient(A, _p("4*x^2"), _p("36*x^2*y*z"),
                                  degree=8, invariant_under=phases)
    assert h == _p("9*y*z")
    assert unique


def test_solve_reports_no_solution():
    A = _algebra("x^8+y^3+z^2")
    with pytest.raises(ValueError):
        solve_in_quotient(A, Poly.monomial(XYZ, A.socle), Poly.constant(XYZ, CycScalar.one()))


def test_solve_flags_non_unique_classes():
    A = _algebra("x^8+y^3+z^2")
    h, unique = solve_in_quotient(A, Poly.monomial(XYZ, A.socle), Poly.zero(XYZ))
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
