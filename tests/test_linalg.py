from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oja.linalg import det_rational, invert_rational, rank, rref, smith_diagonal, solve_linear
from oja.scalar import SQRT2, CycScalar


def sparse(matrix) -> list[dict]:
    """Dense rows as the sparse {column: nonzero entry} rows that `rank` takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def test_rank_over_the_cyclotomic_field():
    one = CycScalar.one()
    zero = CycScalar.zero()
    rows = [[one, SQRT2], [SQRT2, CycScalar.from_rational(2)]]  # second row = sqrt2 * first
    assert rank(sparse(rows)) == 1
    rows = [[one, SQRT2], [SQRT2, CycScalar.from_rational(3)]]
    assert rank(sparse(rows)) == 2
    assert rank(sparse([[zero, zero]])) == 0


def test_solve_linear_particular_and_nullspace():
    one = CycScalar.one()
    zero = CycScalar.zero()
    two = CycScalar.from_rational(2)
    # x + y = 2 with a free variable
    sol, null = solve_linear([[one, one]], [two], zero, one)
    assert sol is not None
    assert sol[0] + sol[1] == two
    assert len(null) == 1
    assert null[0][0] + null[0][1] == zero
    # inconsistent system
    sol, _ = solve_linear([[one], [one]], [one, two], zero, one)
    assert sol is None


def test_solve_linear_unique_solution():
    one = CycScalar.one()
    zero = CycScalar.zero()
    a = [[one, SQRT2], [SQRT2, CycScalar.from_rational(3)]]
    b = [CycScalar.from_rational(1) + SQRT2, SQRT2 + CycScalar.from_rational(3)]
    sol, null = solve_linear(a, b, zero, one)
    assert null == []
    assert sol == [one, one]


def test_invert_rational_round_trip():
    rng = random.Random(3)
    for _ in range(5):
        n = rng.randint(1, 4)
        mat = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        if det_rational(mat) == 0:
            continue
        inv = invert_rational(mat)
        prod = [[sum(mat[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def test_invert_rational_rejects_singular():
    with pytest.raises(ValueError):
        invert_rational([[1, 2], [2, 4]])


def test_det_rational():
    assert det_rational([[2, 1], [1, 2]]) == 3
    assert det_rational([[8, 0, 0], [0, 3, 0], [0, 0, 2]]) == 48
    assert det_rational([[1, 2], [2, 4]]) == 0


def test_smith_diagonal_known_cases():
    assert smith_diagonal([[2, 1], [1, 2]]) == [1, 3]
    assert smith_diagonal([[2, 0], [0, 2]]) == [2, 2]
    assert smith_diagonal([[8, 0, 0], [0, 3, 0], [0, 0, 2]]) == [1, 2, 24]
    assert smith_diagonal([[1, 0], [0, 0]]) == [1, 0]


def test_smith_diagonal_product_is_abs_det():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        diag = smith_diagonal(mat)
        prod = 1
        for d in diag:
            prod *= d
        assert prod == abs(det_rational(mat))
        # divisibility chain on the nonzero part
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def test_rref_pivots():
    one = Fraction(1)
    red, pivots = rref([[one, one, one], [one, one, Fraction(2)]])
    assert pivots == [0, 2]
    assert red[0][:2] == [one, one]


def test_rref_takes_one_reciprocal_per_pivot(monkeypatch):
    calls = []
    original = CycScalar.inverse

    def counting_inverse(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CycScalar, "inverse", counting_inverse)
    z = CycScalar.zeta
    third = CycScalar.from_rational(Fraction(1, 3))
    rows = [[SQRT2, z(1), z(5), third, z(2)],
            [z(3), third, SQRT2, z(7), CycScalar.one()],
            [SQRT2 + z(3), z(1) + third, z(5) + SQRT2, third + z(7), z(2) + CycScalar.one()],
            [z(4), CycScalar.zero(), z(9), SQRT2, third]]
    red, pivots = rref(rows)
    assert pivots == [0, 1, 2]  # the third row is the sum of the first two
    assert len(calls) == len(pivots)
    for r, c in enumerate(pivots):
        assert red[r][c] == CycScalar.one()
