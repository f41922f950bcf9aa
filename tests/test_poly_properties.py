"""Property tests for `Poly`: printing and parsing are inverse, ring results
are valid polynomials, and the search's substitution is exact."""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oja.duality import _BANK, _plug  # noqa: E402
from oja.poly import Poly, parse  # noqa: E402
from oja.scalar import DEGREE, CycScalar  # noqa: E402

VARS = ("x1", "x2", "x3")
UNKNOWNS = ("u0", "u1", "u2", "u3")

fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))
# Rational scalars print without parentheses and irrational ones inside them,
# so both kinds are drawn often.
scalars = st.one_of(
    fractions.map(CycScalar.from_rational),
    st.lists(st.one_of(st.just(Fraction(0)), fractions),
             min_size=DEGREE, max_size=DEGREE).map(CycScalar))
exponents = st.tuples(*(st.integers(0, 4) for _ in VARS))
polys = st.dictionaries(exponents, scalars, max_size=6).map(lambda terms: Poly(VARS, terms))

# Equations in the search's unknowns.  Coefficients ±1 and few exponents make
# terms meet and cancel under a substitution.
units = st.sampled_from([CycScalar.one(), -CycScalar.one()])
equations = st.dictionaries(st.tuples(*(st.integers(0, 2) for _ in UNKNOWNS)),
                            st.one_of(units, scalars), max_size=8
                            ).map(lambda terms: Poly(UNKNOWNS, terms))


@given(polys)
def test_parse_reads_back_what_str_prints(p: Poly):
    assert parse(str(p), VARS) == p


def _assert_checked(r: Poly) -> None:
    """r is what the checking constructor makes of its own terms."""
    assert r == Poly(r.vars, r.terms)
    assert all(type(e) is tuple and len(e) == len(r.vars) for e in r.terms)
    assert all(not c.is_zero() for c in r.terms.values())


@given(polys, polys, scalars)
def test_ring_results_are_checked_polynomials(p: Poly, q: Poly, c: CycScalar):
    for r in (p + q, p - q, p * q, p * c, p.scale(c), -p, p - p, (p + q) - q, p * (q - q)):
        _assert_checked(r)
    assert p - p == Poly.zero(VARS) == p.scale(CycScalar.zero())
    assert (p + q) - q == p


def _reference_plug(eq: Poly, index: int, value: CycScalar) -> Poly:
    """Substitution term by term through the checking constructor."""
    terms: dict[tuple[int, ...], CycScalar] = {}
    for exps, coeff in eq.terms.items():
        for _ in range(exps[index]):
            coeff = coeff * value
        key = exps[:index] + (0,) + exps[index + 1:]
        terms[key] = terms.get(key, CycScalar.zero()) + coeff
    return Poly(eq.vars, terms)


def _with_cancellation(eq: Poly, index: int, value: CycScalar) -> Poly:
    """eq plus, after each term holding the unknown, a term free of it that the
    substitution cancels against that term (when no other term lands there)."""
    terms = dict(eq.terms)
    for exps, coeff in eq.terms.items():
        key = exps[:index] + (0,) + exps[index + 1:]
        if exps[index] and key not in terms:
            for _ in range(exps[index]):
                coeff = coeff * value
            if coeff:
                terms[key] = -coeff
    return Poly(eq.vars, terms)


@pytest.mark.parametrize("value", _BANK, ids=str)
@settings(max_examples=25)
@given(eq=equations, index=st.integers(0, len(UNKNOWNS) - 1))
def test_plug_equals_the_reference_substitution(value: CycScalar, eq: Poly, index: int):
    for p in (eq, _with_cancellation(eq, index, value)):
        r = _plug(p, index, value)
        assert r == _reference_plug(p, index, value)
        assert not any(exps[index] for exps in r.terms)
        _assert_checked(r)
