"""Property tests for the sparse `echelon` rank against the dense `rref`.

Random `Fraction` and `CycScalar` matrices mix independent rows, linear
combinations of them and all-zero rows.  The sparse rows store no zero, as
every algebra element does, and are keyed by distinct tuples of ints in an
order unrelated to the dense columns.  hypothesis is a test-only dependency;
without it the module is skipped.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oja.linalg import echelon, rank, rref  # noqa: E402
from oja.scalar import DEGREE, CycScalar  # noqa: E402

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
# Mostly zero entries, and mostly sparse CycScalar coordinates, so ranks drop.
rational_entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions)
cyclotomic_entries = st.lists(st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions),
                              min_size=DEGREE, max_size=DEGREE).map(CycScalar)


@st.composite
def dense_matrices(draw, entries, zero):
    cols = draw(st.integers(1, 5))
    row = st.lists(entries, min_size=cols, max_size=cols)
    base = draw(st.lists(row, max_size=4))
    rows = list(base)
    for _ in range(draw(st.integers(0, 3)) if base else 0):  # dependent rows
        coeffs = draw(st.lists(entries, min_size=len(base), max_size=len(base)))
        rows.append([sum((c * r[j] for c, r in zip(coeffs, base)), zero) for j in range(cols)])
    rows += [[zero] * cols] * draw(st.integers(0, 2))
    return draw(st.permutations(rows)), cols


@st.composite
def cases(draw):
    entries, zero, one = draw(st.sampled_from([
        (rational_entries, Fraction(0), Fraction(1)),
        (cyclotomic_entries, CycScalar.zero(), CycScalar.one())]))
    dense, cols = draw(dense_matrices(entries, zero))
    keys = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=cols, max_size=cols, unique=True))
    rows = [{keys[j]: x for j, x in enumerate(row) if x} for row in dense]
    return dense, rows, one


@settings(max_examples=100, deadline=None)
@given(cases())
def test_echelon_rank_matches_the_dense_rref(case):
    dense, rows, one = case
    before = [dict(row) for row in rows]
    basis = echelon(rows)
    assert rows == before  # the input rows are not modified
    assert len(basis) == len(rref(dense)[1]) == rank(rows)
    for pivot, row in basis.items():
        assert pivot == min(row) and row[pivot] == one
        assert all(row.values())  # no zero stored
    # Same span: the basis lies in the rows' span, and it has the rank's size.
    assert rank(rows + list(basis.values())) == len(basis)

