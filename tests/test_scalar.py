from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import oja
from oja.scalar import (
    DEGREE,
    HALF_I,
    I_UNIT,
    ORDER,
    SQRT2,
    SQRT3,
    SQRT6,
    CycScalar,
    kth_roots,
    monomial_shape,
    square_roots,
)


def _random_element(rng: random.Random) -> CycScalar:
    return CycScalar(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(DEGREE))


def _random_elements(n: int, seed: int) -> list[CycScalar]:
    rng = random.Random(seed)
    return [_random_element(rng) for _ in range(n)]


def test_basis_length_is_totient_of_order():
    assert ORDER == 24
    assert DEGREE == 8


def test_minimal_polynomial_annihilates_zeta():
    z = CycScalar.zeta(1)
    assert (z**8 - z**4 + CycScalar.one()).is_zero()


def test_zeta_has_exact_order():
    z = CycScalar.zeta(1)
    assert z**ORDER == CycScalar.one()
    for k in range(1, ORDER):
        assert z**k != CycScalar.one()
    assert z**12 == CycScalar.from_rational(-1)


def test_field_axioms_on_random_triples():
    one = CycScalar.one()
    zero = CycScalar.zero()
    elts = _random_elements(9, seed=241)
    for a, b, c in zip(elts[0::3], elts[1::3], elts[2::3]):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if not a.is_zero():
            assert a * a.inverse() == one
            assert a / a == one


def test_pow_agrees_with_repeated_product():
    a = SQRT2 + CycScalar.zeta(5)
    assert a**3 == a * a * a
    assert a**0 == CycScalar.one()
    assert a**-2 == (a * a).inverse()


def test_pow_takes_no_product_by_one_and_no_square_past_the_top_bit(monkeypatch):
    a = SQRT2 + CycScalar.zeta(5)
    products = []
    original = CycScalar.__mul__

    def counting_mul(x, y):
        products.append((x, y))
        return original(x, y)

    monkeypatch.setattr(CycScalar, "__mul__", counting_mul)
    assert a**1 is a
    assert a**0 == CycScalar.one()
    for n in range(1, 41):
        products.clear()
        a**n
        # bit_length − 1 squares, and one product per set bit after the lowest
        assert len(products) == n.bit_length() - 1 + bin(n).count("1") - 1


def test_named_constants_satisfy_their_defining_equations():
    assert (I_UNIT**2).rational_value() == -1
    assert (SQRT2**2).rational_value() == 2
    assert (SQRT3**2).rational_value() == 3
    assert (SQRT6**2).rational_value() == 6
    assert ((I_UNIT * SQRT6)**2).rational_value() == -6
    assert SQRT6 == SQRT2 * SQRT3
    assert HALF_I + HALF_I == I_UNIT


def test_zeta_multiplication_law():
    for a in range(-30, 30):
        for b in range(0, 25):
            assert CycScalar.zeta(a) * CycScalar.zeta(b) == CycScalar.zeta(a + b)
    assert CycScalar.zeta(12) == CycScalar.from_rational(-1)
    assert CycScalar.zeta(6) == I_UNIT


def test_rational_predicates():
    assert CycScalar.from_rational(Fraction(3, 7)).is_rational()
    assert CycScalar.from_rational(Fraction(3, 7)).rational_value() == Fraction(3, 7)
    assert not SQRT2.is_rational()
    with pytest.raises(ValueError):
        SQRT2.rational_value()
    assert CycScalar.zero().is_zero()
    assert not SQRT2.is_zero()


def test_floats_are_refused():
    """A float's binary expansion is no exact input: 0.1 would become
    3602879701896397/36028797018963968."""
    with pytest.raises(TypeError):
        CycScalar.from_rational(0.5)
    with pytest.raises(TypeError):
        CycScalar(iter([0] * (DEGREE - 1) + [0.1]))
    assert CycScalar([Fraction(1, 2)] + [0] * (DEGREE - 1)) == CycScalar.from_rational("1/2")


# `math` functions that return an integer on integers.
_INTEGER_MATH = {"gcd", "lcm", "prod", "isqrt", "comb", "perm", "factorial"}


def test_no_floating_point_in_the_package():
    """No float or complex literal, no `float(...)` call, and from `math` only
    the functions of _INTEGER_MATH, anywhere in the package's source."""
    found, math_names = [], set()
    for path in sorted(Path(oja.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append(f"{where}: literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{where}: float() call")
            elif isinstance(node, ast.Import):
                found += [f"{where}: import math as {a.asname}" for a in node.names
                          if a.name == "math" and a.asname]
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                math_names.update(a.name for a in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "math"):
                math_names.add(node.attr)
    found += [f"math.{name}" for name in sorted(math_names - _INTEGER_MATH)]
    assert not found
    assert "gcd" in math_names  # the walk sees the package's uses of `math`


def test_stdout_has_one_writer():
    """The package writes stdout in one place, `cli._write`: one
    `sys.stdout.write` call, and every `print` goes to `file=sys.stderr`."""
    writes, prints = [], []
    for path in sorted(Path(oja.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                if ast.unparse(node.func) == "sys.stdout.write":
                    writes.append(where)
                elif isinstance(node.func, ast.Name) and node.func.id == "print" and not any(
                        k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                        for k in node.keywords):
                    prints.append(f"{where}:{node.lineno}")
    assert writes == ["cli._write"]
    assert prints == []


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        1 / CycScalar.zero()


def test_json_round_trip():
    for a in _random_elements(6, seed=7) + [I_UNIT * SQRT6, CycScalar.zero()]:
        blob = a.to_json()
        assert isinstance(blob, list) and len(blob) == DEGREE
        assert all(isinstance(s, str) for s in blob)
        assert CycScalar(Fraction(s) for s in blob) == a


def test_display_format():
    assert str(CycScalar.zero()) == "0"
    assert str(CycScalar.from_rational(Fraction(-3, 2))) == "-3/2"
    assert str(SQRT2) == "z^1 + z^3 - z^5"  # zeta^3 + zeta^21 on the reduced basis
    assert str(CycScalar.from_rational(2) * CycScalar.zeta(6)) == "2*z^6"


def test_monomial_shape_detection():
    assert monomial_shape(CycScalar.from_rational(Fraction(5, 3))) == (Fraction(5, 3), 0)
    assert monomial_shape(CycScalar.from_rational(-2) * CycScalar.zeta(7)) == (Fraction(-2), 7)
    assert monomial_shape(SQRT2) is None
    assert monomial_shape(CycScalar.zero()) == (Fraction(0), 0)


def test_square_roots_of_rationals():
    two = CycScalar.from_rational(2)
    roots = square_roots(two)
    assert SQRT2 in roots and -SQRT2 in roots and len(roots) == 2
    for r in roots:
        assert r * r == two
    # squarefree parts outside {1, 2, 3, 6} are not in the field
    assert square_roots(CycScalar.from_rational(5)) == []
    assert square_roots(CycScalar.from_rational(7)) == []


def test_square_roots_fold_signs_through_the_root_of_unity():
    minus4 = CycScalar.from_rational(-4)
    roots = square_roots(minus4)
    assert len(roots) == 2
    for r in roots:
        assert r * r == minus4
    assert CycScalar.from_rational(2) * I_UNIT in roots


def test_square_roots_of_odd_zeta_powers_are_outside_the_field():
    assert square_roots(CycScalar.zeta(1)) == []
    assert square_roots(CycScalar.from_rational(2) * CycScalar.zeta(3)) == []


def test_square_root_of_non_monomial_shape_returns_nothing():
    assert square_roots(CycScalar.one() + SQRT2) == []


def test_fourth_roots_reach_surd_valued_roots():
    minus4 = CycScalar.from_rational(-4)
    roots = kth_roots(minus4, 4)
    one_plus_i = CycScalar.one() + I_UNIT
    assert one_plus_i in roots
    assert len(roots) == 4
    for r in roots:
        assert r**4 == minus4


def test_cube_roots():
    eight = CycScalar.from_rational(8)
    roots = kth_roots(eight, 3)
    zeta3 = CycScalar.zeta(8)
    expected = {CycScalar.from_rational(2), CycScalar.from_rational(2) * zeta3,
                CycScalar.from_rational(2) * zeta3**2}
    assert set(roots) == expected
    for r in roots:
        assert r**3 == eight
    # 1/4 has no rational cube root, hence none in the field either
    assert kth_roots(CycScalar.from_rational(Fraction(1, 4)), 3) == []


def test_cube_roots_of_negative_rationals():
    minus27 = CycScalar.from_rational(-27)
    roots = kth_roots(minus27, 3)
    assert CycScalar.from_rational(-3) in roots
    assert len(roots) == 3
    for r in roots:
        assert r**3 == minus27


def test_kth_roots_of_zero_and_identity_cases():
    zero = CycScalar.zero()
    assert kth_roots(zero, 3) == [zero]
    a = SQRT3 * CycScalar.zeta(2)
    assert kth_roots(a, 1) == [a]
    with pytest.raises(ValueError):
        kth_roots(a, 0)


@pytest.mark.parametrize("x, k, expected", [
    (CycScalar.from_rational(-4), 2, ["2*z^6", "-2*z^6"]),
    (CycScalar.from_rational(3) * CycScalar.zeta(10), 2, ["z^3 + z^7", "-z^3 - z^7"]),
    (CycScalar.from_rational(-4), 4, ["1 + z^6", "-1 - z^6", "-1 + z^6", "1 - z^6"]),
    (CycScalar.from_rational(8), 3, ["2", "-2 + 2*z^4", "-2*z^4"]),
    (CycScalar.from_rational(-27), 3, ["3*z^4", "-3", "3 - 3*z^4"]),
    (CycScalar.from_rational(Fraction(-1, 64)), 6,
     ["1/2*z^2", "-1/2*z^2", "1/2*z^6", "-1/2*z^6", "-1/2*z^2 + 1/2*z^6", "1/2*z^2 - 1/2*z^6"]),
])
def test_root_order_is_pinned(x, k, expected):
    """The ansatz search branches on the roots in this order."""
    assert [str(r) for r in kth_roots(x, k)] == expected
    if k == 2:
        assert [str(r) for r in square_roots(x)] == expected
