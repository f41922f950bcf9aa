"""Property tests for `echelon`, `rank` and `rref` against a dense reference.

`reference_rref` is dense Gauss–Jordan elimination with its own pivot search,
independent of the sparse `echelon` that `rref` is built on.  Random
`Fraction` and `CycScalar` matrices mix independent rows, linear combinations
of them and all-zero rows.  The sparse rows store no zero, as every algebra
element does, and are keyed by distinct tuples of ints in an order unrelated
to the dense columns.  hypothesis is a test-only dependency; without it the
module is skipped.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oja.linalg import echelon, rank, rref  # noqa: E402
from oja.scalar import DEGREE, CycScalar  # noqa: E402


def reference_rref(matrix):
    """Reduced row echelon form (in place on a copy) and pivot columns."""
    mat = [list(row) for row in matrix]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv if x else x for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [a - factor * b if b else a for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return mat, pivots


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


FIELDS = [(rational_entries, Fraction(0), Fraction(1)),
          (cyclotomic_entries, CycScalar.zero(), CycScalar.one())]


@st.composite
def shaped_matrices(draw, entries, zero):
    """A wide (rows < cols) or tall (rows > cols) matrix holding a zero row
    and a linear combination of its other rows."""
    size, extra = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    rows, cols = draw(st.sampled_from([(size, size + extra), (size + extra, size)]))
    free = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows - 2, max_size=rows - 2))
    coeffs = draw(st.lists(entries, min_size=len(free), max_size=len(free)))
    combination = [sum((c * r[j] for c, r in zip(coeffs, free)), zero) for j in range(cols)]
    return draw(st.permutations(free + [combination, [zero] * cols]))


@st.composite
def cases(draw):
    entries, zero, one = draw(st.sampled_from(FIELDS))
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
    assert len(basis) == len(reference_rref(dense)[1]) == rank(rows)
    for pivot, row in basis.items():
        assert pivot == min(row) and row[pivot] == one
        assert all(row.values())  # no zero stored
    # Same span: the basis lies in the rows' span, and it has the rank's size.
    assert rank(rows + list(basis.values())) == len(basis)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda field: shaped_matrices(*field[:2])))
def test_rref_matches_the_dense_reference(matrix):
    reduced, pivots = rref(matrix)
    expected, expected_pivots = reference_rref(matrix)
    assert pivots == expected_pivots
    assert reduced == expected  # the same shape too: rows past the rank are zero
