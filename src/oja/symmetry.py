"""Invertible polynomials, Berglund–Hübsch transposition, diagonal symmetries.

An invertible polynomial here is a sum of N monomials in N variables whose
exponent matrix E (row i = exponents of monomial i) is nonsingular and admits
a positive integral weight system E w = d * (1, ..., 1).  Its transpose swaps
the roles of rows and columns while keeping coefficients.

Diagonal symmetries are recorded as phase vectors: g = (q_1, ..., q_N) with
q_i in Q/Z acts by x_i -> e[q_i] x_i.  The full group G_f is generated by the
columns of E^{-1} taken mod 1 — equivalently all phase vectors with E q
integral.  `max_symmetry_group` cross-checks |G_f| = |det E| and its exponent
(largest element order) = the largest Smith invariant factor of E.  The SL
subgroup keeps the elements of integral age (= phase sum).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Iterable, NamedTuple, Sequence

from .jacobian import has_isolated_singularity
from .linalg import bareiss, det_rational, invert_rational, smith_diagonal
from .poly import ENUMERATION_LIMIT, Poly, grevlex_key, infer_vars, parse
from .scalar import CycScalar


class GroupElement:
    """A diagonal symmetry, stored as integer numerators over its order.

    Phase qᵢ is num[i]/den with 0 <= num[i] < den and gcd(den, num) = 1, so
    den is the order and equality, hashing and composition are integer
    operations.  `phases` is the `Fraction` view, in [0, 1).
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, phases: tuple[Fraction, ...]):
        den = math.lcm(*(p.denominator for p in phases))
        self._set(tuple(p.numerator * (den // p.denominator) % den for p in phases), den)

    def _set(self, num: tuple[int, ...], den: int) -> None:
        common = math.gcd(den, *num)
        self.num = num if common == 1 else tuple(a // common for a in num)
        self.den = den // common
        self._hash = hash((self.num, self.den))  # group elements key many dicts

    @classmethod
    def from_numerators(cls, num: tuple[int, ...], den: int) -> "GroupElement":
        """The element with phases num[i]/den, for numerators in [0, den)."""
        g = cls.__new__(cls)
        g._set(num, den)
        return g

    def __eq__(self, other: object) -> bool:
        return type(other) is GroupElement and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GroupElement(phases={self.phases!r})"

    @classmethod
    def identity(cls, arity: int) -> "GroupElement":
        return cls.from_numerators((0,) * arity, 1)

    @classmethod
    def parse(cls, text: str) -> "GroupElement":
        try:
            return cls(tuple(Fraction(part.strip()) for part in text.split(",")))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad group element {text!r}: {exc}") from None

    @property
    def phases(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.num)

    @property
    def arity(self) -> int:
        return len(self.num)

    def compose(self, other: "GroupElement") -> "GroupElement":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return GroupElement.from_numerators(
            tuple((a * s + b * t) % den for a, b in zip(self.num, other.num)), den)

    __mul__ = compose

    def inverse(self) -> "GroupElement":
        return GroupElement.from_numerators(tuple(-a % self.den for a in self.num), self.den)

    def __pow__(self, n: int) -> "GroupElement":
        return GroupElement.from_numerators(tuple(n * a % self.den for a in self.num), self.den)

    def order(self) -> int:
        return self.den

    def age(self) -> Fraction:
        return Fraction(sum(self.num), self.den)

    def fixes_monomial(self, m: Sequence[int]) -> bool:
        """True iff g fixes x^m, that is Σᵢ qᵢ·mᵢ is an integer."""
        return sum(a * e for a, e in zip(self.num, m)) % self.den == 0

    def fixed_indices(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.num) if not a)

    def is_identity(self) -> bool:
        return self.den == 1

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.phases)


class SymmetryGroup:
    """The group of diagonal symmetries that `generators` generate, on `arity`
    variables, iterated in a canonical order (by phases, identity first).

    The closure is taken at construction, so every group holds the identity
    and is closed under composition, and its stored generators (identities
    dropped) generate it: a character of the group is decided on them.
    """

    def __init__(self, generators: Iterable[GroupElement], arity: int):
        gens = tuple(g for g in generators if not g.is_identity())
        elements: set[GroupElement] = set()
        frontier = {GroupElement.identity(arity)}
        while frontier:  # breadth first: each new element times each generator
            elements |= frontier
            frontier = {e.compose(g) for e in frontier for g in gens} - elements
        scale = math.lcm(*(g.den for g in elements))  # the key orders by phases, on integers
        self.elements = tuple(sorted(
            elements, key=lambda g: tuple(a * (scale // g.den) for a in g.num)))
        self.generators = gens
        self.arity = arity

    @classmethod
    def trivial(cls, arity: int) -> "SymmetryGroup":
        return cls((), arity)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def _members(self) -> frozenset[GroupElement]:
        return frozenset(self.elements)  # a group that is never tested builds no set

    def __contains__(self, g: GroupElement) -> bool:
        return g in self._members

    def fixes_monomial(self, m: Sequence[int]) -> bool:
        """True iff the group fixes x^m; fixing x^m is a character, so the generators decide."""
        return all(g.fixes_monomial(m) for g in self.generators)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymmetryGroup) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"SymmetryGroup[{', '.join(f'({g})' for g in self.elements)}]"


class InvertiblePoly(NamedTuple):
    poly: Poly
    exponents: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    degree: int

    @property
    def vars(self) -> tuple[str, ...]:
        return self.poly.vars

    @property
    def arity(self) -> int:
        return len(self.poly.vars)


def _weight_system(rows: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], int]:
    """The weights w and degree d with E w = d·(1, ..., 1), gcd(w, d) = 1."""
    det, scaled = bareiss(rows, [1] * len(rows))  # scaled = det · E^{-1} · (1,...,1)
    if det == 0:
        raise ValueError("exponent matrix is singular")
    common = math.gcd(det, *scaled) * (1 if det > 0 else -1)  # the sign makes d positive
    weights, d = tuple(x // common for x in scaled), det // common
    if any(w <= 0 for w in weights):
        raise ValueError(f"no positive weight system (got {weights} over degree {d})")
    assert math.gcd(*weights, d) == 1
    return weights, d


def _transposed(rows: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    return list(zip(*rows))


def _assemble(vars: Sequence[str], rows: Sequence[tuple[int, ...]],
              coeffs: Sequence[CycScalar]) -> InvertiblePoly:
    weights, d = _weight_system(rows)
    poly = Poly(vars, dict(zip(rows, coeffs)))
    if len(poly.terms) != len(vars):
        raise ValueError("duplicate monomials")
    return InvertiblePoly(poly, tuple(rows), weights, d)


def build_invertible(f: Poly) -> InvertiblePoly:
    """Validate f as invertible, with isolated singularities for f and its
    transpose, and compute its canonical weight system.

    Monomial rows are ordered by descending grevlex, which fixes the pairing
    of monomials to variables that the transpose uses.
    """
    n = len(f.vars)
    rows = sorted(f.terms, key=grevlex_key, reverse=True)
    if len(rows) != n:
        raise ValueError(
            f"invertible polynomial needs exactly {n} monomials in {n} variables, got {len(rows)}")
    coeffs = [f.terms[e] for e in rows]
    ip = _assemble(f.vars, rows, coeffs)
    for candidate, label in ((ip.poly, "polynomial"),
                             (Poly(f.vars, dict(zip(_transposed(rows), coeffs))), "transpose")):
        if not has_isolated_singularity(candidate):
            raise ValueError(f"degenerate critical point: {label} {candidate} "
                             "has an infinite-dimensional Jacobian algebra")
    return ip


@lru_cache(maxsize=None)
def parse_invertible(text: str, vars: tuple[str, ...] | None = None) -> InvertiblePoly:
    """Read an invertible polynomial, over `vars` or else the ones `infer_vars` reads."""
    return build_invertible(parse(text, vars if vars is not None else infer_vars(text)))


def transpose(ip: InvertiblePoly) -> InvertiblePoly:
    """Berglund–Hübsch transpose, up to renaming variables.

    The exponent matrix is transposed and the coefficients kept.  Row order is
    preserved (row i of the transpose is column i of the original), which
    makes the operation an exact involution.  Rows pair with variables by
    descending grevlex, not by the variable each monomial is built on, so
    `x1^2 + x2^3` comes out as `x1^3 + x2^2`.
    """
    return _assemble(ip.vars, _transposed(ip.exponents),
                     [ip.poly.terms[e] for e in ip.exponents])


def max_symmetry_group(ip: InvertiblePoly) -> SymmetryGroup:
    """The full diagonal symmetry group G_f, with order cross-checks."""
    inv = invert_rational(ip.exponents)
    n = ip.arity
    expected = abs(det_rational(ip.exponents))
    assert expected.denominator == 1
    if expected > ENUMERATION_LIMIT:
        raise ValueError(f"|det E| = {expected} exceeds the enumeration limit of "
                         f"{ENUMERATION_LIMIT}")
    gens = [GroupElement(tuple(inv[i][j] for i in range(n))) for j in range(n)]
    group = SymmetryGroup(gens, n)
    exponent = max(g.order() for g in group)
    largest = smith_diagonal([list(r) for r in ip.exponents])[-1]
    if group.order != int(expected) or exponent != largest:
        raise AssertionError(
            f"group order {group.order} and exponent {exponent} disagree with "
            f"|det E| = {expected} and the largest SNF invariant factor {largest}")
    # Fixing x^{E_i} is a character of G, so the generators decide it for the group.
    for g in gens:
        if not all(g.fixes_monomial(row) for row in ip.exponents):
            raise AssertionError(f"generator {g} is not a symmetry")
    return group


def is_sl_symmetry(ip: InvertiblePoly, g: GroupElement) -> bool:
    """True iff g lies in the SL subgroup of G_f: E·q is integral and the age is integral."""
    return g.fixes_monomial((1,) * g.arity) and all(map(g.fixes_monomial, ip.exponents))


def admissible_generators(texts: Sequence[str], ip: InvertiblePoly) -> list[GroupElement]:
    """The phase lists in `texts`, read in order, once they generate a group
    that the orbifold construction admits: the one statement of that policy.
    Each generator's arity, then the product of the distinct ones' orders (the
    group is listed element by element), then membership in SL ∩ G_f are checked."""
    generators = []
    for text in texts:
        g = GroupElement.parse(text)
        if g.arity != ip.arity:
            raise ValueError(f"group element ({text}) has {g.arity} phases, expected {ip.arity}")
        generators.append(g)
    bound = math.prod(g.order() for g in set(generators))  # |<generators>| <= bound
    if bound > ENUMERATION_LIMIT:
        raise ValueError(f"the generators' orders multiply to {bound}, above the "
                         f"enumeration limit of {ENUMERATION_LIMIT}")
    # Both SL conditions are characters, so the generators decide them for the group.
    if not all(is_sl_symmetry(ip, g) for g in generators):
        raise ValueError(
            f"<{'; '.join(texts)}> is not a special-linear symmetry group of {ip.poly}")
    return generators


def parse_group(texts: Sequence[str], ip: InvertiblePoly) -> SymmetryGroup:
    """The group that the phase lists in `texts` generate: the one reader of group text."""
    return SymmetryGroup(admissible_generators(texts, ip), ip.arity)


def sl_subgroup(group: SymmetryGroup) -> SymmetryGroup:
    """Elements of integral age (the SL(N) condition for diagonal matrices).

    The subgroup carries generators that generate it (none when trivial):
    the group's generators in it when they suffice; else the element of
    full order with the largest phases for a cyclic subgroup; else the
    members a closure sweep over the canonical order adds.
    """
    members = [g for g in group if g.fixes_monomial((1,) * g.arity)]
    arity = group.arity
    generated = SymmetryGroup([g for g in group.generators if g in members], arity)
    # `generated` lies inside the subgroup, so equal orders mean equal groups.
    if generated.order == len(members):
        return generated
    cyclic = [g for g in members if g.order() == len(members)]
    if cyclic:
        return SymmetryGroup([max(cyclic, key=lambda g: g.num)], arity)
    # The sweep always reaches the subgroup, and then adds nothing more.
    span = SymmetryGroup.trivial(arity)
    for g in members:
        if span.order < len(members) and g not in span:
            span = SymmetryGroup((*span.generators, g), arity)
    return span


def matching_permutations(f: Poly, g: Poly) -> list[tuple[int, ...]]:
    """All maps σ (variable i of f ↦ variable σ[i] of g) turning f into g."""
    if len(f.vars) != len(g.vars) or len(f.terms) != len(g.terms):
        return []
    n = len(f.vars)
    found = []
    for perm in permutations(range(n)):
        remapped = {}
        for exps, coeff in f.terms.items():
            new = [0] * n
            for i, e in enumerate(exps):
                new[perm[i]] = e
            remapped[tuple(new)] = coeff
        if remapped == g.terms:
            found.append(perm)
    return found


def same_up_to_variable_permutation(f: Poly, g: Poly) -> bool:
    """True when renaming variables turns f into g (coefficients included)."""
    return bool(matching_permutations(f, g))
