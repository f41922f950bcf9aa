"""Exact arithmetic in the cyclotomic field K = Q(zeta_24).

Elements are written on the power basis 1, z, ..., z^7 where z is a fixed
primitive 24th root of unity.  An element is stored as a tuple of integer
numerators over one positive common denominator, kept canonical (gcd of the
denominator and all numerators is 1), which is the `nf_elem` layout of
ANTIC/FLINT.  Products are integer convolutions reduced with the monic
minimal polynomial Phi_24(t) = t^8 - t^4 + 1, so z^12 = -1; a rational
factor (numerators zero past the first) only scales the other numerators.

The inverse is taken through the Galois norm.  For x = v/d != 0 with integer
numerators v, the product P of the conjugates sigma_k(v), over the units k
mod 24 other than 1, satisfies v * P = N(v), a nonzero integer, so
1/x = d * P / N(v) with integer arithmetic throughout.

The field is large enough to host i = z^6, sqrt(2) = z^3 + z^21,
sqrt(3) = z^2 + z^22 and their products, which is all the irrationality the
catalog computations ever need.  Square/cube/fourth roots are searched only
among elements of "monomial shape" q * z^m with q rational; that restriction
is what makes the search exact and terminating (no floating point, no lattice
reduction).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

ORDER = 24


# Phi_24(t) = t^8 - t^4 + 1, integer coefficients from low to high degree.
_PHI = [1, 0, 0, 0, -1, 0, 0, 0, 1]
DEGREE = len(_PHI) - 1
# The Galois group of K is (Z/ORDER)^x, acting by z -> z^k.
_UNITS = [k for k in range(1, ORDER) if gcd(k, ORDER) == 1]
assert DEGREE == len(_UNITS)

# t^DEGREE = -sum _PHI[i] t^i: the nonzero (i, -_PHI[i]) used to fold a top term down.
_FOLD = [(i, -c) for i, c in enumerate(_PHI[:DEGREE]) if c]


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer coordinate vectors, reduced modulo Phi_24."""
    prod = [0] * (2 * DEGREE - 1)
    right = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in right:
                prod[i + j] += x * y
    for k in range(2 * DEGREE - 2, DEGREE - 1, -1):
        top = prod[k]
        if top:
            for i, c in _FOLD:
                prod[k - DEGREE + i] += top * c
    del prod[DEGREE:]
    return prod


# Integer coordinates of z^m for 0 <= m < ORDER.
_ZETA = [tuple(int(i == 0) for i in range(DEGREE))]
while len(_ZETA) < ORDER:
    _ZETA.append(tuple(_int_mul(_ZETA[-1], [int(i == 1) for i in range(DEGREE)])))
# sigma_k sends z^j to z^(jk mod ORDER); stored per k as the sparse image of each z^j.
_CONJUGATIONS = [[[(i, c) for i, c in enumerate(_ZETA[j * k % ORDER]) if c]
                  for j in range(DEGREE)]
                 for k in _UNITS if k != 1]


def _conjugate(n: Sequence[int], images: list[list[tuple[int, int]]]) -> list[int]:
    out = [0] * DEGREE
    for x, image in zip(n, images):
        if x:
            for i, c in image:
                out[i] += x * c
    return out


def _canonical(n: Sequence[int], d: int) -> "CycScalar":
    """The element n / d for integer numerators n and d > 0, in lowest terms."""
    g = gcd(d, *n)
    if g != 1:
        n = [x // g for x in n]
        d //= g
    obj = object.__new__(CycScalar)
    obj.n = tuple(n)
    obj.d = d
    return obj


class CycScalar:
    """An element of Q(zeta_ORDER) on the power basis: numerators `n` over `d`.

    >>> (CycScalar.zeta(3) + CycScalar.zeta(21)) ** 2 == CycScalar.from_rational(2)
    True
    >>> CycScalar.zeta(6) ** 2
    CycScalar(-1)
    """

    __slots__ = ("n", "d")

    def __init__(self, coeffs: Iterable[Fraction | int]):
        coeffs = list(coeffs)
        if any(isinstance(x, float) for x in coeffs):
            raise TypeError(f"a float is no exact coordinate: {coeffs!r}")
        c = [Fraction(x) for x in coeffs]
        if len(c) != DEGREE:
            raise ValueError(f"expected {DEGREE} coordinates, got {len(c)}")
        d = lcm(*(x.denominator for x in c))
        # d is the lcm of reduced denominators, so gcd(d, *n) is already 1.
        self.n = tuple(x.numerator * (d // x.denominator) for x in c)
        self.d = d

    @property
    def c(self) -> tuple[Fraction, ...]:
        """The rational coordinates on the power basis."""
        return tuple(Fraction(x, self.d) for x in self.n)

    # --- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "CycScalar":
        if isinstance(q, float):
            raise TypeError(f"a float is no exact rational: {q!r}")
        q = Fraction(q)
        return _canonical((q.numerator,) + (0,) * (DEGREE - 1), q.denominator)

    @classmethod
    def zero(cls) -> "CycScalar":
        return _ZERO_ELT

    @classmethod
    def one(cls) -> "CycScalar":
        return _ONE_ELT

    @classmethod
    def zeta(cls, k: int = 1) -> "CycScalar":
        """The power z^k (k may be any integer)."""
        return _canonical(_ZETA[k % ORDER], 1)

    # --- arithmetic ---------------------------------------------------

    def __add__(self, other: "CycScalar") -> "CycScalar":
        d, e = self.d, other.d
        if d == e:
            return _canonical([a + b for a, b in zip(self.n, other.n)], d)
        return _canonical([a * e + b * d for a, b in zip(self.n, other.n)], d * e)

    def __sub__(self, other: "CycScalar") -> "CycScalar":
        return self + (-other)

    def __neg__(self) -> "CycScalar":
        return _canonical([-a for a in self.n], self.d)

    def __mul__(self, other: "CycScalar") -> "CycScalar":
        a, b = self.n, other.n
        if not any(a[1:]):
            return _canonical([a[0] * x for x in b], self.d * other.d)
        if not any(b[1:]):
            return _canonical([b[0] * x for x in a], self.d * other.d)
        return _canonical(_int_mul(a, b), self.d * other.d)

    def inverse(self) -> "CycScalar":
        """Multiplicative inverse through the Galois norm.

        With P the product of the conjugates of the numerator vector n, n * P
        is the integer norm N(n), so (n/d)^-1 = d * P / N(n).  A rational
        n0/d is inverted directly as d/n0.
        """
        n = self.n
        if not any(n):
            raise ZeroDivisionError("inverse of zero")
        if not any(n[1:]):
            return _canonical([self.d if n[0] > 0 else -self.d] + [0] * (DEGREE - 1), abs(n[0]))
        cofactor = _ONE_ELT.n
        for images in _CONJUGATIONS:
            cofactor = _int_mul(cofactor, _conjugate(n, images))
        norm = _int_mul(n, cofactor)
        if any(norm[1:]):
            raise ArithmeticError(f"norm of {self} is not rational: {norm}")
        scale = self.d if norm[0] > 0 else -self.d
        return _canonical([scale * x for x in cofactor], abs(norm[0]))

    def __truediv__(self, other: "CycScalar") -> "CycScalar":
        return self * other.inverse()

    def __rtruediv__(self, other: int | Fraction) -> "CycScalar":
        """q / x for a rational q, as in `1 / pivot`."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 1:  # every elimination pivot: no Fraction, one canonical form
            return self.inverse()
        q, inv = Fraction(other), self.inverse()
        return _canonical([q.numerator * x for x in inv.n], q.denominator * inv.d)

    def __pow__(self, n: int) -> "CycScalar":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return _ONE_ELT
        # Square up to the lowest set bit, which starts the result without a
        # product by one; no square is taken past the highest bit.
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycScalar) and self.d == other.d and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.d, self.n))

    def __bool__(self) -> bool:
        return any(self.n)

    def is_zero(self) -> bool:
        return not any(self.n)

    def is_rational(self) -> bool:
        return not any(self.n[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.n[0], self.d)

    # --- presentation -------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for k, a in enumerate(self.c):
            if not a:
                continue
            mag = str(abs(a)) if k == 0 else (f"{abs(a)}*z^{k}" if abs(a) != 1 else f"z^{k}")
            if not parts:
                parts.append(mag if a > 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if a > 0 else f"- {mag}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"CycScalar({self})"

    def to_json(self) -> list[str]:
        return [str(a) for a in self.c]


_ZERO_ELT = CycScalar([0] * DEGREE)
_ONE_ELT = CycScalar.from_rational(1)

# Named constants used throughout the catalog computations.  The surd
# expressions are standard Gauss-sum identities in Q(zeta_24).
I_UNIT = CycScalar.zeta(6)
SQRT2 = CycScalar.zeta(3) + CycScalar.zeta(21)
SQRT3 = CycScalar.zeta(2) + CycScalar.zeta(22)
SQRT6 = SQRT2 * SQRT3
HALF_I = I_UNIT * CycScalar.from_rational(Fraction(1, 2))

assert (SQRT2 * SQRT2).rational_value() == 2
assert (SQRT3 * SQRT3).rational_value() == 3


# --- exact k-th roots -------------------------------------------------

def monomial_shape(x: CycScalar) -> tuple[Fraction, int] | None:
    """Write x as q * z^m with q rational, if possible.

    Returns (q, m) with 0 <= m < ORDER, preferring the smallest m; None if x
    has no such shape.  Zero is reported as (0, 0).
    """
    if x.is_zero():
        return Fraction(0), 0
    for m in range(ORDER):
        y = x * CycScalar.zeta(-m)
        if y.is_rational():
            return y.rational_value(), m
    return None


def _int_nth_root(n: int, k: int) -> int | None:
    """Exact k-th root of a positive integer, or None."""
    lo, hi = 1, 1
    while hi**k < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


_SURDS = {1: _ONE_ELT, 2: SQRT2, 3: SQRT3, 6: SQRT6}


def _shaped_roots(x: CycScalar, k: int) -> list[CycScalar]:
    """All c in the field with c**k = x, for k = 2 or odd k and x = q * z^m.

    The sign of q folds into z^m (-1 = z^12), and c = s * z^t with s**k = |q|
    and t*k = m (mod 24).  Only a square root s may carry sqrt 2, 3 or 6.

    The list is complete.  Let c**k = q * z^m with q > 0.  For odd k,
    |c|**2 = c * conj(c) lies in K and is the real q**(2/k); K is abelian, so
    Q(q**(2/k)) is normal, which for odd k forces q**(2/k), and then
    s = q**(1/k), to be rational.  So c/s is a root of unity of K: some z^t.
    For k = 2, no q * z^m with m odd is a square: sigma: z -> z^13 = -z fixes
    Q, and y**2 = q * z^m would give sigma(y) = +-i*y, so sigma(sigma(y)) = -y,
    yet sigma is an involution.  For even m, (c * z^(-m/2))**2 = q puts sqrt q
    in K, and K's quadratic subfields are Q(sqrt d) for d in -1, +-2, +-3,
    +-6; the real ones, d = 2, 3, 6, are the surds tried below.
    """
    if x.is_zero():
        return [x]
    shape = monomial_shape(x)
    if shape is None:
        return []
    q, m = shape
    if q < 0:
        q, m = -q, (m + ORDER // 2) % ORDER
    if k == 2:
        # sqrt(num/den) = sqrt(num*den)/den = s * sqrt(r)/den for the one
        # squarefree r, if it is in _SURDS, that leaves num*den/r a square.
        n = q.numerator * q.denominator
        for r, surd in _SURDS.items():
            s = isqrt(n // r)
            if s * s * r == n:
                break
        else:
            return []
        root = CycScalar.from_rational(Fraction(s, q.denominator)) * surd
    else:
        num, den = _int_nth_root(q.numerator, k), _int_nth_root(q.denominator, k)
        if num is None or den is None:
            return []
        root = CycScalar.from_rational(Fraction(num, den))
    g = gcd(k, ORDER)
    if m % g:
        return []
    step = ORDER // g
    t0 = (m // g) * pow(k // g, -1, step) % step
    return [root * CycScalar.zeta(t0 + j * step) for j in range(g)]


def square_roots(x: CycScalar) -> list[CycScalar]:
    """All square roots of x lying in the field, for monomial-shaped x.

    Inputs that are not of the shape q * z^m yield [] — such roots are never
    needed here and finding them exactly would require genuine lattice work.
    """
    return _shaped_roots(x, 2)


def kth_roots(x: CycScalar, k: int) -> list[CycScalar]:
    """All solutions c in the field of c**k = x that the shape search finds.

    k factors as 2^a * m; an odd k goes to the shape finder at once and each
    factor of two through `square_roots`, which is how surd-valued roots like
    (1+i)**4 = -4 are reached.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return [x]
    if k % 2:
        return _shaped_roots(x, k)
    found: list[CycScalar] = []
    for u in kth_roots(x, k // 2):
        for r in square_roots(u):
            if r not in found:
                found.append(r)
    return found
