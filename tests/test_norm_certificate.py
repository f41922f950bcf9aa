"""A norm certificate that rows 19 and 20 have no witness over K = Q(ζ₂₄).

The ansatz searches of rows 19 (t³) and 20 (t⁵) run out after asking seven
roots that K does not hold.  Here that is shown without the search or its root
finder: if t^k = a had a solution b in K, then N(a) = N(b)^k for the field norm
N = N_{K/Q}, so the 2-adic valuation v₂(N(a)) would be divisible by k.  The
norm of a = a(ζ) is the resultant of Φ₂₄(t) = t⁸ − t⁴ + 1 and a(t), computed
by sympy with a as a polynomial over Q.  sympy is a test-only dependency;
without it the module is skipped.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

_T = sympy.Symbol("t")  # stands for ζ = exp(2πi/24)
_PHI_24 = sympy.Poly(sympy.cyclotomic_poly(24, _T), _T, domain=sympy.QQ)

# (a(t), k): the values whose k-th roots the rows 19/20 searches find none of.
_NO_ROOT = [
    (sympy.Rational(-1, 4), 3),
    (_T**4 / 4, 3),
    ((1 - _T**4) / 4, 3),
    (sympy.Rational(1, 4), 5),
    (sympy.Rational(-1, 4), 5),
    (_T**6 / 4, 5),
    (-_T**6 / 4, 5),
]


def _norm(a) -> Fraction:
    """N_{K/Q}(a(ζ)) = Res(Φ₂₄, a): Φ₂₄ is monic, so the resultant is the
    product of a over the eight conjugates of ζ."""
    norm = _PHI_24.resultant(sympy.Poly(a, _T, domain=sympy.QQ))
    return Fraction(int(norm.p), int(norm.q))


def _v2(q: Fraction) -> int:
    """The exponent of 2 in the nonzero rational q."""
    def twos(n: int) -> int:
        return (n & -n).bit_length() - 1
    return twos(abs(q.numerator)) - twos(q.denominator)


def test_the_norm_is_the_product_over_the_conjugates():
    assert _norm(sympy.Rational(-1, 4)) == Fraction(1, 2**16)  # (−1/4)⁸
    assert _norm(_T) == 1 and _norm(1 + _T**8) == 1  # units: ζ and 1 + ζ⁸ = ζ⁴
    assert _norm(1 + _T**6) == 16  # 1 + i: norm 2 from Q(i), and [K : Q(i)] = 4
    assert _v2(Fraction(-3, 40)) == -3 and _v2(Fraction(12)) == 2


@pytest.mark.parametrize("a, k", _NO_ROOT, ids=lambda v: str(v).replace(" ", ""))
def test_the_norm_has_no_kth_root(a, k):
    norm = _norm(a)
    assert norm != 0
    assert _v2(norm) % k != 0, (str(a), k, norm)


@pytest.mark.parametrize("a, k", [(sympy.Rational(-1, 8), 3), (_T**6 / 32, 5)],
                         ids=["-1/8-cube", "zeta6/32-fifth-power"])
def test_a_kth_power_passes_the_valuation_test(a, k):
    """−1/8 = (−1/2)³ and ζ⁶/32 = (ζ⁶/2)⁵ pass, so the test above can fail."""
    assert _v2(_norm(a)) % k == 0
