"""Independent oracles for the Groebner bases and Milnor numbers.

For every catalog variant and its transpose, the reduced grevlex basis of the
Jacobian ideal must equal the one ``sympy.groebner`` computes, and three
Milnor numbers must agree: oja's ``milnor``, the count of standard monomials
under sympy's leading monomials, and the Milnor–Orlik formula
μ = ∏(d/wᵢ − 1) from the weight system alone (Milnor–Orlik, *Topology* 9,
1970).  sympy is a test-only dependency; without it the module is skipped.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as cartesian

import pytest

from oja.catalog import load_catalog
from oja.jacobian import groebner, milnor
from oja.poly import Poly, parse
from oja.symmetry import build_invertible, transpose

sympy = pytest.importorskip("sympy")

VARS = ("x1", "x2", "x3")
SYMBOLS = sympy.symbols(VARS)
_VARIANTS = [v for entry in load_catalog().entries for v in entry.variants]


def _rational(c) -> Fraction:
    assert not any(c.c[1:]), f"{c} is not rational"
    return c.c[0]


def _to_sympy(p: Poly):
    return sum((sympy.Rational(_rational(c).numerator, _rational(c).denominator)
                * sympy.prod(s ** e for s, e in zip(SYMBOLS, exps))
                for exps, c in p.terms.items()), sympy.Integer(0))


def _ours(p: Poly) -> dict[tuple[int, ...], Fraction]:
    return {exps: _rational(c) for exps, c in p.terms.items()}


def _theirs(g) -> dict[tuple[int, ...], Fraction]:
    poly = sympy.Poly(g, *SYMBOLS)
    lead = poly.LC(order="grevlex")
    return {exps: Fraction(int(q.p), int(q.q))
            for exps, q in ((e, c / lead) for e, c in poly.terms())}


def _count_standard(leading: list[tuple[int, ...]]) -> int:
    bounds = [min(m[i] for m in leading if sum(m) == m[i]) for i in range(len(VARS))]
    return sum(1 for m in cartesian(*(range(b) for b in bounds))
               if not any(all(a <= b for a, b in zip(lm, m)) for lm in leading))


@pytest.mark.parametrize("text", _VARIANTS)
def test_jacobian_ideal_matches_sympy_and_milnor_orlik(text):
    ip = build_invertible(parse(text, VARS))
    for candidate in (ip, transpose(ip)):
        f = candidate.poly
        partials = [f.partial_derivative(i) for i in range(len(VARS))]
        ours = sorted(map(_ours, groebner(partials).generators), key=sorted)
        basis = sympy.groebner([_to_sympy(p) for p in partials], *SYMBOLS, order="grevlex")
        theirs = sorted(map(_theirs, basis.exprs), key=sorted)
        assert ours == theirs, str(f)

        leading = [sympy.Poly(g, *SYMBOLS).monoms(order="grevlex")[0] for g in basis.exprs]
        orlik = math.prod(Fraction(candidate.degree, w) - 1 for w in candidate.weights)
        assert milnor(f) == _count_standard(leading) == orlik, str(f)
