"""Property tests for `Poly`: printing and parsing are inverse."""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from oja.poly import Poly, parse  # noqa: E402
from oja.scalar import DEGREE, CycScalar  # noqa: E402

VARS = ("x1", "x2", "x3")

fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))
# Rational scalars print without parentheses and irrational ones inside them,
# so both kinds are drawn often.
scalars = st.one_of(
    fractions.map(CycScalar.from_rational),
    st.lists(st.one_of(st.just(Fraction(0)), fractions),
             min_size=DEGREE, max_size=DEGREE).map(CycScalar))
exponents = st.tuples(*(st.integers(0, 4) for _ in VARS))
polys = st.dictionaries(exponents, scalars, max_size=6).map(lambda terms: Poly(VARS, terms))


@given(polys)
def test_parse_reads_back_what_str_prints(p: Poly):
    assert parse(str(p), VARS) == p
