"""Property tests for `CycScalar` against a Fraction-coordinate reference."""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from oja.scalar import (DEGREE, ORDER, SQRT2, SQRT3, SQRT6, CycScalar,  # noqa: E402
                        kth_roots, square_roots, _canonical, _CONJUGATIONS, _conjugate,
                        _int_mul)

PHI = [1, 0, 0, 0, -1, 0, 0, 0, 1]  # t^8 - t^4 + 1, the minimal polynomial of z
assert ORDER == 24 and len(PHI) == DEGREE + 1


def reference_product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Schoolbook product of power-basis coordinates, reduced modulo PHI."""
    prod = [Fraction(0)] * (2 * DEGREE - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * DEGREE - 2, DEGREE - 1, -1):
        top = prod[k]
        prod[k] = Fraction(0)
        for i in range(DEGREE):
            prod[k - DEGREE + i] -= top * PHI[i]
    return prod[:DEGREE]


fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
# Mostly sparse vectors, like the scalars the algebra computations produce.
coordinates = st.lists(st.one_of(st.just(Fraction(0)), fractions),
                       min_size=DEGREE, max_size=DEGREE)
elements = coordinates.map(CycScalar)
nonzero = elements.filter(bool)


@given(coordinates, coordinates)
def test_product_agrees_with_the_fraction_reference(a, b):
    assert (CycScalar(a) * CycScalar(b)).c == tuple(reference_product(a, b))


@given(nonzero)
def test_inverse_is_a_two_sided_inverse(x):
    assert x * x.inverse() == CycScalar.one()
    assert x.inverse() * x == CycScalar.one()
    assert 1 / x == x.inverse()
    assert Fraction(3, 5) / x == CycScalar.from_rational(Fraction(3, 5)) * x.inverse()


# Rational scalars about half the time, the case the product and inverse shortcut.
scalars = st.one_of(fractions.map(CycScalar.from_rational), elements)


def norm_inverse(x: CycScalar) -> CycScalar:
    """1/x as d * P / N(n), P the product of the conjugates of the numerators n."""
    cofactor = [1] + [0] * (DEGREE - 1)
    for images in _CONJUGATIONS:
        cofactor = _int_mul(cofactor, _conjugate(x.n, images))
    norm = _int_mul(x.n, cofactor)
    assert not any(norm[1:])
    sign = 1 if norm[0] > 0 else -1
    return _canonical([sign * x.d * c for c in cofactor], abs(norm[0]))


@given(scalars, scalars)
def test_product_and_inverse_agree_with_the_general_path(x, y):
    assert x * y == _canonical(_int_mul(x.n, y.n), x.d * y.d)
    if x:
        assert x.inverse() == norm_inverse(x)


@given(elements, elements, elements)
def test_equal_values_have_one_canonical_form(a, b, c):
    left, right = (a + b) * c, a * c + b * c
    assert left == right
    assert hash(left) == hash(right)
    assert left.to_json() == right.to_json()
    assert (left.n, left.d) == (right.n, right.d)
    assert left.d > 0
    assert CycScalar(left.c).n == left.n and CycScalar(left.c).d == left.d


@given(scalars, st.integers(-4, 40))
def test_power_equals_repeated_multiplication(x, n):
    assume(x or n >= 0)
    base = x if n >= 0 else x.inverse()
    expected = CycScalar.one()
    for _ in range(abs(n)):
        expected = expected * base
    assert x**n == expected


@given(elements)
def test_json_round_trip(x):
    assert CycScalar.from_json(x.to_json()) == x


surds = st.sampled_from([CycScalar.one(), SQRT2, SQRT3, SQRT2 * SQRT3])
monomial_shaped = st.builds(lambda q, s, m: CycScalar.from_rational(q) * s * CycScalar.zeta(m),
                            fractions, surds, st.integers(0, ORDER - 1))


@settings(max_examples=60)
@given(st.one_of(monomial_shaped, elements), st.integers(1, 6), st.booleans())
def test_kth_roots_are_roots(x, k, as_power):
    if as_power:
        x = x**k  # guarantees at least one root exists in the field
    for r in kth_roots(x, k):
        assert r**k == x


def _assert_roots_of_a_power(roots, c, k):
    assert c in roots
    assert all(r**k == c**k for r in roots)
    assert len(set(roots)) == len(roots)


@given(fractions, st.integers(0, ORDER - 1), st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
def test_kth_roots_of_a_power_contain_its_base(s, t, k):
    """c = s·z^t: every root of c**k is found, c among them, none twice."""
    c = CycScalar.from_rational(s) * CycScalar.zeta(t)
    _assert_roots_of_a_power(kth_roots(c**k, k), c, k)


@given(fractions, st.sampled_from([SQRT2, SQRT3, SQRT6]), st.integers(0, ORDER - 1))
def test_square_roots_of_a_surd_square_contain_its_base(s, surd, t):
    """c = s·√r·z^t for r in {2, 3, 6}: only a square root may carry the surd."""
    c = CycScalar.from_rational(s) * surd * CycScalar.zeta(t)
    _assert_roots_of_a_power(square_roots(c**2), c, 2)
