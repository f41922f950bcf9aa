from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oja.poly import Poly, PolyParseError, grevlex_key, infer_vars, parse
from oja.scalar import SQRT2, CycScalar

XYZ = ("x", "y", "z")


def _random_poly(vars, rng: random.Random, nterms=4, maxexp=3) -> Poly:
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, maxexp) for _ in vars)
        terms[exps] = CycScalar.from_rational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return Poly(vars, terms)


def test_parse_basic():
    f = parse("x^4+y^3+x*z^2", XYZ)
    assert f.terms == {
        (4, 0, 0): CycScalar.one(),
        (0, 3, 0): CycScalar.one(),
        (1, 0, 2): CycScalar.one(),
    }


def test_parse_coefficients_and_juxtaposition():
    f = parse("3*x^2*y + 2x - 7", XYZ)
    assert f.terms[(2, 1, 0)] == CycScalar.from_rational(3)
    assert f.terms[(1, 0, 0)] == CycScalar.from_rational(2)
    assert f.terms[(0, 0, 0)] == CycScalar.from_rational(-7)


def test_parse_repeated_factors_accumulate():
    assert parse("x*x*x", XYZ) == parse("x^3", XYZ)


def test_equal_polynomials_are_one_dict_key():
    a = parse("x^2 + 2*y - z", XYZ)
    b = parse("-z + 2*y + x^2", XYZ)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, parse("x^2 + 2*y", XYZ), Poly(("x", "y", "w"), a.terms)}) == 3


def test_parse_whitespace_and_leading_sign():
    assert parse("  - x + y ", XYZ) == parse("y", XYZ) - parse("x", XYZ)


def test_parse_negative_exponent_reports_position():
    with pytest.raises(PolyParseError, match="position 2: negative exponent"):
        parse("x^-1", XYZ)


def test_parse_unknown_variable_reports_position():
    with pytest.raises(PolyParseError, match="position 4: unknown variable 'w'"):
        parse("x + w^2", XYZ)


def test_parse_trailing_garbage_rejected():
    with pytest.raises(PolyParseError):
        parse("x ^ 2 )", XYZ)
    with pytest.raises(PolyParseError):
        parse("", XYZ)


X123 = ("x1", "x2", "x3")
_IN_Z = " (parentheses hold only a Q(ζ₂₄) coefficient written in z)"


@pytest.mark.parametrize("text, vars, message", [
    ("", XYZ, "position 0: empty polynomial"),
    ("   ", XYZ, "position 3: empty polynomial"),
    ("x^-1", XYZ, "position 2: negative exponent"),
    ("x^", XYZ, "position 2: expected an integer"),
    ("1/0*x", XYZ, "position 3: zero denominator"),
    ("1/ 2*x", XYZ, "position 2: expected an integer"),
    ("1/x", XYZ, "position 2: expected an integer"),
    ("*x", XYZ, "position 0: expected a variable name"),
    ("x*", XYZ, "position 2: expected a variable name"),
    ("x + -y", XYZ, "position 4: expected a variable name"),
    ("2*3", XYZ, "position 2: expected a variable name"),
    ("(z)*(z)", XYZ, "position 4: expected a variable name"),
    ("x1 2", X123, "position 3: unexpected character '2'"),
    ("(z", XYZ, "position 0: unclosed parenthesis"),
    ("(x1+x2)^2", X123, "position 1: unknown variable 'x1'" + _IN_Z),
    ("(1/0)*x", XYZ, "position 4: zero denominator" + _IN_Z),
    ("x ^ 2 )", XYZ, "position 6: unexpected character ')'"),
    ("x + w^2", XYZ, "position 4: unknown variable 'w'"),
    ("é^2", XYZ, "position 0: unknown variable 'é'"),
])
def test_parse_error_messages(text: str, vars: tuple[str, ...], message: str):
    with pytest.raises(PolyParseError) as caught:
        parse(text, vars)
    assert str(caught.value) == message


@pytest.mark.parametrize("text, exps, coeff", [
    ("2x", (1, 0, 0), 2),     # juxtaposition after a coefficient
    ("x y", (1, 1, 0), 1),    # juxtaposition of two factors
    ("x ^ 2", (2, 0, 0), 1),  # spaces around '^'
])
def test_parse_juxtaposition_and_spacing(text: str, exps: tuple[int, ...], coeff: int):
    assert parse(text, XYZ) == Poly.monomial(XYZ, exps, CycScalar.from_rational(coeff))


@pytest.mark.parametrize("text, vars", [
    ("x1^3+x3", ("x1", "x2", "x3")),       # canonical: up to the largest index
    ("2x1 + 3x2^2", ("x1", "x2")),         # a digit run before a name is a coefficient
    ("z^2+x", ("x", "z")),                 # aliases, in the order x, y, z
    ("(z)*x^2+y^2", ("x", "y")),           # z in a coefficient is not a variable
    ("(z^2+1)", ("z",)),                   # ... unless no name lies outside one
])
def test_infer_vars(text: str, vars: tuple[str, ...]):
    assert infer_vars(text) == vars


@pytest.mark.parametrize("text, message", [
    ("1/2 + 3", "no variables found in '1/2 + 3'"),
    ("x1^2+y^3", "cannot infer variables from ['x1', 'y']; "
                 "use canonical names x1..xN (or the aliases x, y, z)"),
    ("é^2", "cannot infer variables from ['é']; "
            "use canonical names x1..xN (or the aliases x, y, z)"),
])
def test_infer_vars_messages(text: str, message: str):
    with pytest.raises(PolyParseError) as caught:
        infer_vars(text)
    assert str(caught.value) == message


def test_ring_axioms_and_cancellation():
    rng = random.Random(11)
    f, g, h = (_random_poly(XYZ, rng) for _ in range(3))
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f - f).is_zero()
    assert f * Poly.zero(XYZ) == Poly.zero(XYZ)


def test_leibniz_rule():
    rng = random.Random(23)
    for _ in range(3):
        f = _random_poly(XYZ, rng)
        g = _random_poly(XYZ, rng)
        for i in range(3):
            lhs = (f * g).partial_derivative(i)
            rhs = f.partial_derivative(i) * g + f * g.partial_derivative(i)
            assert lhs == rhs


def test_euler_identity_for_weighted_homogeneous_polynomials():
    # sum_i w_i x_i d_i f = d * f when f is weighted homogeneous of degree d
    f = parse("x^4+y^3+x*z^2", XYZ)
    weights, d = (6, 8, 9), 24
    assert f.is_weighted_homogeneous(weights, d)
    acc = Poly.zero(XYZ)
    for i, w in enumerate(weights):
        acc = acc + Poly.variable(XYZ, i) * f.partial_derivative(i).scale(
            CycScalar.from_rational(w))
    assert acc == f.scale(CycScalar.from_rational(d))
    assert not f.is_weighted_homogeneous((1, 1, 1), 4)


def test_hessian_of_diagonal_polynomial():
    f = parse("x^8+y^3+z^2", XYZ)
    assert f.hessian() == parse("672*x^6*y", XYZ)


def test_hessian_with_off_diagonal_entries():
    f = parse("x^4+y^2*z+x*z^2", XYZ)
    assert f.hessian() == parse("48*x^3*z - 48*x^2*y^2 - 8*z^3", XYZ)


def test_hessian_arity_zero_is_unit():
    f = Poly.zero(())
    assert f.hessian() == Poly.constant((), CycScalar.one())


def test_restrict_keeps_names_and_kills_other_variables():
    f = parse("x^4+y^3+x*z^2", XYZ)
    assert f.restrict([1]) == parse("y^3", ("y",))
    assert f.restrict([0, 2]) == parse("x^4+x*z^2", ("x", "z"))
    assert f.restrict([]) == Poly.zero(())


def test_embed_inverts_restrict():
    f = parse("x^4+x*z^2", ("x", "z"))
    lifted = f.embed(XYZ, [0, 2])
    assert lifted == parse("x^4+x*z^2", XYZ)
    assert lifted.restrict([0, 2]) == f


def test_grevlex_order_facts():
    # degree dominates; within a degree the smaller trailing difference wins
    assert grevlex_key((2, 0, 0)) > grevlex_key((0, 1, 1))
    assert grevlex_key((0, 2, 0)) > grevlex_key((1, 0, 1))  # y^2 > xz
    assert grevlex_key((1, 1, 0)) > grevlex_key((0, 2, 0))  # xy > y^2
    ordered = sorted([(0, 0, 2), (1, 1, 0), (0, 2, 0), (2, 0, 0), (0, 0, 1)], key=grevlex_key)
    assert ordered == [(0, 0, 1), (0, 0, 2), (0, 2, 0), (1, 1, 0), (2, 0, 0)]


def test_str_orders_terms_by_descending_grevlex():
    f = parse("x*z^2 + y^3 + x^4", XYZ)
    assert str(f) == "x^4 + y^3 + x*z^2"
    g = parse("y", XYZ) - parse("2*x", XYZ)
    assert str(g) == "-2*x + y" or str(g) == "y - 2*x"


def test_str_wraps_irrational_coefficients():
    f = Poly.monomial(XYZ, (1, 0, 0), SQRT2)
    assert str(f) == "(z^1 + z^3 - z^5)*x"


def test_json_round_trip():
    rng = random.Random(5)
    f = _random_poly(XYZ, rng) + Poly.monomial(XYZ, (0, 1, 0), SQRT2)
    blob = f.to_json()
    assert Poly.from_json(blob) == f
    assert blob["vars"] == list(XYZ)


def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        Poly(XYZ, {(1, 0): CycScalar.one()})
    with pytest.raises(ValueError):
        Poly(XYZ, {(-1, 0, 0): CycScalar.one()})
