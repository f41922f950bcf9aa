"""sympy as an oracle for `groebner` on random weighted-homogeneous ideals.

Each example starts from an invertible exponent matrix in 2 or 3 variables,
adds further monomials of the same weighted degree, and gives every term a
random nonzero rational coefficient.  The reduced grevlex basis of the
partial derivatives must equal `sympy.groebner(..., order="grevlex")` once
both are made monic.  sympy and hypothesis are test-only dependencies;
without either the module is skipped.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oja.jacobian import groebner  # noqa: E402
from oja.poly import Poly  # noqa: E402
from oja.scalar import CycScalar  # noqa: E402
from oja.symmetry import _weight_system  # noqa: E402


def _weighted_systems(arity: int, bound: int) -> list[tuple]:
    """(invertible rows, weights, degree) for every set of `arity` rows with
    entries ≤ `bound` that has a positive weight system."""
    out = []
    for rows in itertools.combinations(itertools.product(range(bound + 1), repeat=arity), arity):
        try:
            weights, degree = _weight_system(rows)
        except ValueError:
            continue
        out.append((rows, weights, degree))
    return out


SYSTEMS = _weighted_systems(2, 4) + _weighted_systems(3, 2)


def _same_degree(weights, degree) -> list[tuple[int, ...]]:
    box = (range(degree // w + 1) for w in weights)
    return [m for m in itertools.product(*box)
            if sum(w * e for w, e in zip(weights, m)) == degree]


@st.composite
def weighted_polys(draw) -> Poly:
    rows, weights, degree = draw(st.sampled_from(SYSTEMS))
    others = [m for m in _same_degree(weights, degree) if m not in rows]
    extra = draw(st.lists(st.sampled_from(others), unique=True, max_size=3)) if others else []
    coeffs = st.builds(Fraction, st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda q: st.sampled_from([q, -q]))
    vars = tuple(f"x{i}" for i in range(1, len(weights) + 1))
    return Poly(vars, {m: CycScalar.from_rational(draw(coeffs)) for m in [*rows, *extra]})


def _monic_dicts(polys) -> list[dict]:
    out = []
    for terms in polys:
        lead = terms[max(terms, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))]
        out.append({m: c / lead for m, c in terms.items()})
    return sorted(out, key=sorted)


@settings(max_examples=40, deadline=None)
@given(weighted_polys())
def test_groebner_matches_sympy_on_random_weighted_homogeneous_ideals(f: Poly):
    symbols = sympy.symbols(f.vars)
    partials = [p for p in (f.partial_derivative(i) for i in range(len(f.vars))) if p]
    ours = [{m: c.rational_value() for m, c in g.terms.items()}
            for g in groebner(partials).generators]
    exprs = [sum((sympy.Rational(c.rational_value().numerator, c.rational_value().denominator)
                  * sympy.prod(s ** e for s, e in zip(symbols, m))
                  for m, c in p.terms.items()), sympy.Integer(0)) for p in partials]
    basis = sympy.groebner(exprs, *symbols, order="grevlex")
    theirs = [{m: Fraction(int(c.p), int(c.q)) for m, c in sympy.Poly(g, *symbols).terms()}
              for g in basis.exprs]
    assert _monic_dicts(ours) == _monic_dicts(theirs), str(f)
