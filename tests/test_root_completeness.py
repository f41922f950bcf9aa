"""The search's root finder is complete on the calls it makes.

`kth_roots(a, k)` claims every c in K = Q(ζ₂₄) with c^k = a when a = q·ζ^m
(`scalar._shaped_roots` argues it).  Here sympy factors t^k − a over K,
independently, and the number of its linear factors must be the number of
roots oja returns.  This is checked on every (a, k) that `search_iso` asks,
through `kth_roots` or through `square_roots` on a discriminant, on all 20
rows at both certificate levels, and on seeded q·ζ^m.  Off that shape
`square_roots` returns [] even where a root exists (3+2√2 = (1+√2)²), and the
search would prune on that [], so only with every request of the shape do
the exhausted searches of rows 19 and 20 leave no graded Frobenius
isomorphism over K unfound.  sympy is a test-only dependency; without it the
module is skipped.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oja import duality
from oja.catalog import load_catalog, row_source, row_target
from oja.orbifold import orbifold_algebra
from oja.scalar import SQRT2, SQRT3, CycScalar, kth_roots, monomial_shape, square_roots

sympy = pytest.importorskip("sympy")

_ZETA = sympy.exp(2 * sympy.pi * sympy.I / 24)
_FIELD = sympy.QQ.algebraic_field(_ZETA)  # generator ζ, modulus t^8 − t^4 + 1
_T = sympy.Symbol("t")


def _in_field(x: CycScalar):
    """x as an element of sympy's K: its coordinates on 1, ζ, …, ζ⁷, highest first.

    Handing sympy the coordinates saves it from locating exp(5πi/12) and the
    like in K, which took it seconds per value."""
    return _FIELD([sympy.QQ(c.numerator, c.denominator) for c in reversed(x.c)])


def _linear_factors(a: CycScalar, k: int) -> int:
    """The number of linear factors of t^k − a over K, with multiplicity."""
    poly = sympy.Poly([_FIELD.one, *[_FIELD.zero] * (k - 1), -_in_field(a)], _T, domain=_FIELD)
    return sum(mult for factor, mult in poly.factor_list()[1] if factor.degree() == 1)


def test_coordinates_enter_sympys_field_as_powers_of_its_generator():
    assert _FIELD.to_sympy(_in_field(CycScalar.zeta(1))) == _ZETA
    assert _in_field(CycScalar.zeta(5)) == _FIELD.from_sympy(_ZETA) ** 5
    assert _in_field(SQRT2) ** 2 == _FIELD.convert(2)


def _search_calls(monkeypatch) -> list[tuple[CycScalar, int]]:
    """The distinct (a, k) that `search_iso` passes to `kth_roots`, and (a, 2) for
    each a it passes to `square_roots`, over the 40 searches; only rows 19 and 20
    exhaust theirs, at Frobenius level."""
    calls = []
    monkeypatch.setattr(duality, "kth_roots", lambda a, k: calls.append((a, k)) or kth_roots(a, k))
    monkeypatch.setattr(duality, "square_roots",
                        lambda a: calls.append((a, 2)) or square_roots(a))
    exhausted = []
    for row in load_catalog().rows:
        for frobenius in (True, False):
            try:
                duality.search_iso(row_source(row), orbifold_algebra(*row_target(row)),
                                   require_frobenius=frobenius)
            except duality.SearchFailure as exc:
                assert "exhausted" in str(exc), (row.index, frobenius)
                exhausted.append((row.index, frobenius))
    assert exhausted == [(19, True), (20, True)]
    return list(dict.fromkeys(calls))


def test_the_search_asks_roots_of_q_zeta_m_and_gets_all_of_them(monkeypatch):
    """A first root (k = 1) is the value itself, of whatever shape; every other
    request is of the shape q·ζ^m and gets every root in K."""
    calls = _search_calls(monkeypatch)
    assert any(k > 1 for _, k in calls)
    for a, k in calls:
        if k == 1:
            assert kth_roots(a, k) == [a]
            continue
        assert monomial_shape(a) is not None, (str(a), k)
        assert len(kth_roots(a, k)) == _linear_factors(a, k), (str(a), k)


def _seeded(count: int = 8, seed: int = 24) -> list[tuple[CycScalar, int]]:
    """q·ζ^m with k in 2..6: half are k-th powers (for even k, of a surd too),
    half are drawn at random."""
    rng = random.Random(seed)
    cases = []
    for n in range(count):
        k = rng.randint(2, 6)
        c = CycScalar.from_rational(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 5)))
        c *= CycScalar.zeta(rng.randrange(24))
        if n % 2:
            cases.append((c, k))
        else:
            surd = rng.choice([CycScalar.one(), SQRT2, SQRT3, SQRT2 * SQRT3]) if k % 2 == 0 \
                else CycScalar.one()
            cases.append(((c * surd) ** k, k))
    return cases


@pytest.mark.parametrize("a, k", _seeded(), ids=lambda v: str(v).replace(" ", ""))
def test_seeded_values_get_every_root(a, k):
    assert monomial_shape(a) is not None
    roots = kth_roots(a, k)
    assert all(r ** k == a for r in roots) and len(set(roots)) == len(roots)
    assert len(roots) == _linear_factors(a, k)
