from __future__ import annotations

import itertools
import math
import random
import signal
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
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]  # needs the divisibility step


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


def _leibniz_det(rows: list[list[int]]) -> int:
    """Determinant by expansion over permutations, each signed by its inversions."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def _reference_smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """d_k = D_k / D_{k-1}, where D_k is the gcd of the k×k minors and D_0 = 1.

    Once some D_k is 0, every larger minor is 0 too, and the rest are zeros.
    """
    m, n = len(matrix), len(matrix[0])
    diag, previous = [], 1
    for k in range(1, min(m, n) + 1):
        minors = (_leibniz_det([[matrix[i][j] for j in cols] for i in rows])
                  for rows in itertools.combinations(range(m), k)
                  for cols in itertools.combinations(range(n), k))
        divisor = 0
        for minor in minors:
            divisor = math.gcd(divisor, minor)
            if divisor == 1:
                break  # no gcd is smaller
        if divisor == 0:
            return diag + [0] * (min(m, n) - k + 1)
        diag.append(divisor // previous)
        previous = divisor
    return diag


def _random_smith_case(rng: random.Random, case: int) -> list[list[int]]:
    """An m×n matrix, 1 <= m, n <= 4, entries in [-12, 12]: dense; mostly zero,
    where shapes such as diag(2, 3) need the divisibility step; or with its
    last row 0 or ±1 times its first, so singular when square."""
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    sparse = case % 3 == 1
    rows = [[rng.randint(-12, 12) if not sparse or rng.random() < 0.4 else 0
             for _ in range(n)] for _ in range(m)]
    if case % 3 == 2 and m >= 2:
        c = rng.choice((-1, 0, 1))
        rows[-1] = [c * x for x in rows[0]]
    return rows


def test_smith_diagonal_matches_the_determinantal_divisor_reference():
    rng = random.Random(26)
    shapes = set()
    for case in range(600):
        matrix = _random_smith_case(rng, case)
        assert smith_diagonal(matrix) == _reference_smith_diagonal(matrix), matrix
        shapes.add((len(matrix), len(matrix[0])))
    assert len(shapes) == 16


def _within_ten_seconds(function, *args):
    """function(*args), or TimeoutError once 10 s have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"{function.__name__} ran for more than 10 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        return function(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_smith_diagonal_of_a_dense_six_by_six_matrix_returns_in_time():
    matrix = [[-2, 9, 8, -5, 2, 6], [9, -7, -9, 6, -1, 8], [-2, -3, 6, 8, 8, 6],
              [3, -5, -2, -5, 7, 3], [-9, -7, -4, 9, -8, 0], [-9, -1, 6, 3, 4, 3]]
    assert _within_ten_seconds(smith_diagonal, matrix) == [1, 1, 1, 1, 1, 220183]


def test_smith_diagonal_of_a_dense_eight_by_eight_matrix_returns_in_time():
    rng = random.Random(1)
    matrix = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]
    expected = _reference_smith_diagonal(matrix)
    assert _within_ten_seconds(smith_diagonal, matrix) == expected


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
