"""Exact linear algebra over the cyclotomic field and over the integers.

Every sum into a sparse dict {key: nonzero} goes through `accumulate`,
which deletes an entry that cancels, so no such dict stores a zero.
Gaussian elimination is generic in the coefficient field: it only needs
+, -, *, `1 / x` and truthiness, so the same routines serve `CycScalar`
and `Fraction` entries.  Ranks run on sparse rows ({column: nonzero}):
`echelon` is forward elimination only, and `rank` counts its pivots.  `rref`
is the same elimination plus a back-reduction, returned as the dense pivot
rows the solves read (`solve_linear`, exponent-matrix inverses).  Each pivot
takes one reciprocal, and the pivot row is multiplied by it.  Determinants
and weight systems stay in the integers: `bareiss` gives det A and
det A·A⁻¹b by fraction-free elimination.  The integer Smith normal form is
used to cross-check the exponent of a symmetry group.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, TypeVar

from .scalar import CycScalar

K = TypeVar("K")
T = TypeVar("T")

_ONE = CycScalar.one()


def accumulate(out: dict[K, T], key: K, term: T) -> None:
    """out[key] += term for a nonzero term; an entry that cancels is deleted."""
    prev = out.get(key)
    if prev is None:
        out[key] = term
    elif total := prev + term:
        out[key] = total
    else:
        del out[key]


def add_scaled(out: dict[K, T], c, vector: Mapping[K, CycScalar]) -> None:
    """out[i] += c · vector[i] for nonzero c, by `accumulate`.

    `c` may come from any ring that multiplies the scalars of `vector` from
    the left.  An entry that is `CycScalar.one()` itself is not multiplied.
    """
    for i, s in vector.items():
        accumulate(out, i, c if s is _ONE else c * s)


def _eliminate(row: dict[K, T], pivot: Mapping[K, T], col: K) -> None:
    """row −= row[col]·pivot, in place, for a pivot that is 1 at `col`."""
    factor = -row.pop(col)
    for k, c in pivot.items():
        if k != col:
            accumulate(row, k, factor * c)


def echelon(rows: Iterable[Mapping[K, T]]) -> dict[K, dict[K, T]]:
    """Forward elimination over sparse rows {column: nonzero entry}.

    Columns are any mutually ordered keys (ints, or tuples of ints).  Returns
    {pivot column: row}: each row is 1 at its smallest column, its pivot, and
    the pivots are distinct, so the rows are a basis of the input's span.
    Input rows must store no zero; they are not modified.
    """
    basis: dict[K, dict[K, T]] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            pivot = basis.get(lead)
            if pivot is None:
                inv = 1 / row[lead]
                basis[lead] = {k: c * inv for k, c in row.items()}
                break
            _eliminate(row, pivot, lead)
    return basis


def rref(matrix: list[list[T]]) -> tuple[list[list[T]], list[int]]:
    """Reduced row echelon form of a dense matrix, and its pivot columns.

    `echelon`, then back-reduction: from the last pivot to the first, each
    pivot column is cleared from the earlier pivot rows.  The reduced form
    is unique.  The result is dense, one row per pivot: the rows past the
    rank, all zero, are left out.
    """
    basis = echelon({c: x for c, x in enumerate(row) if x} for row in matrix)
    pivots = sorted(basis)
    for i in range(len(pivots) - 1, 0, -1):
        col = pivots[i]
        for earlier in pivots[:i]:
            if col in basis[earlier]:
                _eliminate(basis[earlier], basis[col], col)
    cols = len(matrix[0]) if matrix else 0
    zero = matrix[0][0] - matrix[0][0] if cols else None
    return [[basis[p].get(c, zero) for c in range(cols)] for p in pivots], pivots


def rank(rows: Iterable[Mapping[K, T]]) -> int:
    """Rank of sparse rows {column: nonzero entry}: the pivots of `echelon`."""
    return len(echelon(rows))


def solve_linear(matrix: list[list[T]], rhs: list[T], zero: T, one: T
                 ) -> tuple[list[T] | None, list[list[T]]]:
    """Solve A x = b exactly.

    Returns (particular solution or None, basis of the nullspace of A).
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    red, pivots = rref(aug)
    solution: list[T] | None
    if cols in pivots:
        solution = None  # inconsistent: pivot in the augmented column
    else:
        solution = [zero] * cols
        for r, c in enumerate(pivots):
            solution[c] = red[r][cols]
    # Column by column, the left block of rref([A | b]) is rref(A).
    pivots_a = [c for c in pivots if c < cols]
    null_basis: list[list[T]] = []
    free = [c for c in range(cols) if c not in pivots_a]
    for f in free:
        vec = [zero] * cols
        vec[f] = one
        for r, c in enumerate(pivots_a):
            vec[c] = zero - red[r][f]
        null_basis.append(vec)
    return solution, null_basis


def invert_rational(matrix: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    """Inverse of a square rational matrix, or ValueError if singular."""
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)]
           + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def det_rational(matrix: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Determinant of a square rational matrix: rows scaled to integers, then `bareiss`."""
    scales = [math.lcm(*(x.denominator for x in row)) for row in matrix]
    det, _ = bareiss([[int(x * s) for x in row] for row, s in zip(matrix, scales)],
                     [0] * len(matrix))
    return Fraction(det, math.prod(scales))


def bareiss(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[int, list[int]]:
    """det A and the integer vector det A·A⁻¹b, or (0, []) for singular A.

    One fraction-free Gauss–Jordan pass over [A | b] (Bareiss, Math. Comp. 22,
    1968): entries stay minors, so each division by the previous pivot is
    exact, and every diagonal entry ends as the last pivot, ±det A.
    """
    n = len(matrix)
    mat = [list(row) + [b] for row, b in zip(matrix, rhs)]
    sign, pivot = 1, 1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if mat[i][c]), None)
        if pivot_row is None:
            return 0, []
        if pivot_row != c:
            mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
            sign = -sign
        previous, pivot = pivot, mat[c][c]
        for i in range(n):
            if i != c:
                a = mat[i][c]
                mat[i] = [(pivot * x - a * y) // previous for x, y in zip(mat[i], mat[c])]
    return sign * pivot, [sign * row[n] for row in mat]


def smith_diagonal(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Nonnegative invariant factors d_1 | d_2 | ... padded with zeros up to
    min(m, n).  Step t pivots on a smallest nonzero entry of the block
    a[t:, t:] and reduces column t and row t by it.  A nonzero remainder,
    or an entry of the lower-right block the pivot does not divide (its row
    is first added to row t), starts the step again on a smaller pivot.
    """
    a = [[int(x) for x in row] for row in matrix]
    m, n = len(a), len(a[0]) if a else 0
    for t in range(min(m, n)):
        while True:
            nonzero = [(abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, n) if a[i][j]]
            if not nonzero:
                break  # the block is zero, and with it the rest of the diagonal
            _, i0, j0 = min(nonzero)
            a[t], a[i0] = a[i0], a[t]
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            p = a[t][t]
            for i in range(t + 1, m):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                q = a[t][j] // p
                for row in a:
                    row[j] -= q * row[t]
            if any(a[i][t] for i in range(t + 1, m)) or any(a[t][t + 1:]):
                continue
            offender = next((i for i in range(t + 1, m) if any(x % p for x in a[i][t + 1:])), None)
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
    return [abs(a[i][i]) for i in range(min(m, n))]
