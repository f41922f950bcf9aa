"""Multivariate polynomials over Q(zeta_24) with exact exponent bookkeeping.

A `Poly` is a sparse map from exponent tuples to nonzero `CycScalar`
coefficients together with an ordered tuple of variable names; the zero
polynomial has an empty map.  Arity 0 is allowed and behaves as the scalar
ring itself (a single term with the empty exponent tuple), which is what the
fixed locus of a group element with no fixed coordinates restricts to.

Display and serialization order terms by descending graded-reverse-lex so
that equal polynomials always print and dump identically.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linalg import accumulate
from .scalar import CycScalar

# The most elements oja will list in one finite set: the box of candidate
# standard monomials of a Jacobian algebra (the product of its pure-power
# exponents), a maximal diagonal symmetry group (of order |det E_f|) and a
# group given by generators on the command line (at most the product of
# their orders).  Each size is checked before anything is enumerated.
ENUMERATION_LIMIT = 100_000


def grevlex_key(exps: Sequence[int]):
    """Sort key realizing graded reverse lexicographic order (ascending).

    Total degree first; ties are broken so that the monomial whose exponent
    difference has a negative last nonzero entry is the larger one.
    """
    return (sum(exps), tuple(-e for e in reversed(exps)))


class PolyParseError(ValueError):
    pass


class Poly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple[int, ...], CycScalar] | None = None):
        self.vars = tuple(vars)
        clean: dict[tuple[int, ...], CycScalar] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != len(self.vars):
                    raise ValueError(f"exponent tuple {exps} does not match arity {len(self.vars)}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if not coeff.is_zero():
                    clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def _clean(cls, vars: tuple[str, ...], terms: dict[tuple[int, ...], CycScalar]) -> "Poly":
        """Wrap terms already known valid: exponent tuples of the ring's
        arity, none negative, and no zero coefficient.  The ring operations
        build their results through here; everything else goes through the
        checks of `Poly(vars, terms)`."""
        obj = object.__new__(cls)
        obj.vars, obj.terms = vars, terms
        return obj

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Poly":
        return cls(vars)

    @classmethod
    def constant(cls, vars: Sequence[str], value: CycScalar) -> "Poly":
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def monomial(cls, vars: Sequence[str], exps: Sequence[int], coeff: CycScalar | None = None) -> "Poly":
        return cls(vars, {tuple(exps): coeff if coeff is not None else CycScalar.one()})

    @classmethod
    def variable(cls, vars: Sequence[str], index: int) -> "Poly":
        exps = [0] * len(vars)
        exps[index] = 1
        return cls.monomial(vars, exps)

    # --- ring operations ----------------------------------------------

    def _check_ring(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"mixed variable rings {self.vars} vs {other.vars}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            accumulate(terms, exps, coeff)
        return Poly._clean(self.vars, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._clean(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Poly | CycScalar") -> "Poly":
        if isinstance(other, CycScalar):
            return self.scale(other)
        self._check_ring(other)
        terms: dict[tuple[int, ...], CycScalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                # c1·c2 is nonzero: a field has no zero divisors
                accumulate(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return Poly._clean(self.vars, terms)

    def scale(self, scalar: CycScalar) -> "Poly":
        if scalar.is_zero():
            return Poly._clean(self.vars, {})
        return Poly._clean(self.vars, {e: c * scalar for e, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        # Consistent with __eq__; nothing mutates `terms` after construction.
        return hash((self.vars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # --- calculus and structure ----------------------------------------

    def partial_derivative(self, index: int) -> "Poly":
        terms: dict[tuple[int, ...], CycScalar] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e:
                key = exps[:index] + (e - 1,) + exps[index + 1:]
                terms[key] = coeff * CycScalar.from_rational(e)
        return Poly(self.vars, terms)

    def hessian(self) -> "Poly":
        """Determinant of the matrix of second partials, exactly."""
        n = len(self.vars)
        second = [[self.partial_derivative(i).partial_derivative(j) for j in range(n)]
                  for i in range(n)]
        return _determinant(second, self.vars)

    def is_weighted_homogeneous(self, weights: Sequence[int], degree: int) -> bool:
        return all(sum(w * e for w, e in zip(weights, exps)) == degree for exps in self.terms)

    def restrict(self, keep: Iterable[int]) -> "Poly":
        """Set all variables NOT in `keep` to zero, shrinking the ring.

        The surviving variables keep their names and relative order; the
        empty `keep` yields an arity-0 polynomial.
        """
        kept = sorted(set(keep))
        new_vars = tuple(self.vars[i] for i in kept)
        dropped = [i for i in range(len(self.vars)) if i not in set(kept)]
        terms: dict[tuple[int, ...], CycScalar] = {}
        for exps, coeff in self.terms.items():
            if any(exps[i] for i in dropped):
                continue
            terms[tuple(exps[i] for i in kept)] = coeff
        return Poly(new_vars, terms)

    def embed(self, ambient_vars: Sequence[str], positions: Sequence[int]) -> "Poly":
        """Lift into a larger ring, placing variable i at positions[i]."""
        if len(positions) != len(self.vars):
            raise ValueError("one position per variable required")
        terms: dict[tuple[int, ...], CycScalar] = {}
        for exps, coeff in self.terms.items():
            lifted = [0] * len(ambient_vars)
            for e, pos in zip(exps, positions):
                lifted[pos] = e
            terms[tuple(lifted)] = coeff
        return Poly(ambient_vars, terms)

    # --- presentation ---------------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self._sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exps) if e
            )
            if coeff.is_rational():
                q = coeff.rational_value()
                body = mono if abs(q) == 1 and mono else (f"{abs(q)}*{mono}" if mono else str(abs(q)))
                sign = q < 0
            else:
                body = f"({coeff})*{mono}" if mono else f"({coeff})"
                sign = False
            if not parts:
                parts.append(f"-{body}" if sign else body)
            else:
                parts.append(f"- {body}" if sign else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [{"exp": list(exps), "coeff": coeff.to_json()}
                      for exps, coeff in self._sorted_terms()],
        }


def _determinant(matrix: list[list[Poly]], vars: Sequence[str]) -> Poly:
    """Laplace expansion memoized over column subsets (exact, division-free)."""
    n = len(matrix)
    if n == 0:
        return Poly.constant(vars, CycScalar.one())
    cache: dict[tuple[int, ...], Poly] = {}

    def minor(row: int, cols: tuple[int, ...]) -> Poly:
        if not cols:
            return Poly.constant(vars, CycScalar.one())
        if cols in cache:
            return cache[cols]
        acc = Poly.zero(vars)
        for pos, col in enumerate(cols):
            entry = matrix[row][col]
            if entry.is_zero():
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1:])
            piece = entry * sub
            acc = acc + (piece if pos % 2 == 0 else -piece)
        cache[cols] = acc
        return acc

    return minor(0, tuple(range(n)))


# --- parsing ------------------------------------------------------------

# The tokens of polynomial text, each matched at the cursor.  A name starts
# with a letter or `_` (`_at_name`); an integer is ASCII digits only.
_SPACE = re.compile(r"\s*")
_UINT = re.compile(r"[0-9]+")
_NAME = re.compile(r"\w+")
# A parenthesized Q(ζ₂₄) coefficient, written in z; parentheses do not nest.
_COEFFICIENT = re.compile(r"\([^)]*\)")
_CANONICAL = re.compile(r"x[1-9][0-9]*\Z")
_ALIASES = ("x", "y", "z")


def _at_name(text: str, pos: int) -> bool:
    return pos < len(text) and (text[pos].isalpha() or text[pos] == "_")


def is_name(word: str) -> bool:
    """Whether `parse` reads `word` as one variable name."""
    return _at_name(word, 0) and _NAME.fullmatch(word) is not None


def parse(text: str, vars: Sequence[str]) -> Poly:
    """Parse `coeff*x1^2*x2 + ...` into a Poly over the given variables.

    The grammar is sums/differences of terms, each an optional coefficient
    followed by variable powers, separated by `*` or juxtaposed.  A
    coefficient is an unsigned integer or fraction, or a scalar in
    parentheses written as a polynomial in z = ζ₂₄, so
    `parse(str(p), p.vars) == p`.  Every error names its position in `text`.
    """
    vars = tuple(vars)
    index = {v: i for i, v in enumerate(vars)}
    pos = 0

    def fail(message: str):
        raise PolyParseError(f"position {pos}: {message}")

    def skip(sep: str = "") -> bool:
        """Skip whitespace, then `sep` and the whitespace after it if it is next."""
        nonlocal pos
        pos = _SPACE.match(text, pos).end()
        if sep and text.startswith(sep, pos):
            pos = _SPACE.match(text, pos + 1).end()
            return True
        return False

    def read_uint() -> int:
        nonlocal pos
        match = _UINT.match(text, pos) or fail("expected an integer")
        pos = match.end()
        return int(match.group())

    def read_coeff() -> CycScalar:
        nonlocal pos
        if text.startswith("(", pos):
            end = text.find(")", pos)
            if end < 0:
                fail("unclosed parenthesis")
            # Padded so that error positions count from the start of `text`.
            try:
                terms = parse(" " * (pos + 1) + text[pos + 1:end], ("z",)).terms
            except PolyParseError as exc:
                raise PolyParseError(f"{exc} (parentheses hold only a Q(ζ₂₄) "
                                     "coefficient written in z)") from None
            pos = end + 1
            return sum((c * CycScalar.zeta(e) for (e,), c in terms.items()), CycScalar.zero())
        value = Fraction(read_uint())
        if text.startswith("/", pos):
            pos += 1
            value /= read_uint() or fail("zero denominator")
        return CycScalar.from_rational(value)

    def read_factor(exps: list[int]) -> None:
        nonlocal pos
        if not _at_name(text, pos):
            fail("expected a variable name")
        name = _NAME.match(text, pos).group()
        if name not in index:
            fail(f"unknown variable {name!r}")
        pos += len(name)
        power = skip("^")
        if power and text.startswith("-", pos):
            fail("negative exponent")
        exps[index[name]] += read_uint() if power else 1

    def read_term() -> tuple[tuple[int, ...], CycScalar]:
        skip()
        coeff = CycScalar.one()
        exps = [0] * len(vars)
        if text.startswith("(", pos) or _UINT.match(text, pos):
            coeff = read_coeff()
        else:
            read_factor(exps)
        while skip("*") or _at_name(text, pos):
            read_factor(exps)
        return tuple(exps), coeff

    skip()
    if pos == len(text):
        fail("empty polynomial")
    terms: dict[tuple[int, ...], CycScalar] = {}
    sign = "+"
    while True:
        if text[pos] in "+-":
            sign = text[pos]
            pos += 1
        exps, coeff = read_term()
        if coeff:  # a zero coefficient adds nothing
            accumulate(terms, exps, coeff if sign == "+" else -coeff)
        skip()
        if pos == len(text):
            return Poly._clean(vars, terms)
        if text[pos] not in "+-":
            fail(f"unexpected character {text[pos]!r}")


def infer_vars(text: str) -> tuple[str, ...]:
    """Variable tuple for polynomial text in canonical or alias names.

    Canonical names x1…xN give (x1, …, xN) with N the largest index used;
    the aliases x, y, z are taken as-is, in that order.  A name is what
    `parse` reads as one, and names inside a parenthesized coefficient are
    not variables, unless no name lies outside one: then `parse` reports the
    misplaced parentheses.
    """
    def names(source: str) -> set[str]:
        # A digit run before a name is a coefficient or exponent: "2x1" is x1.
        words = (w.lstrip("0123456789") for w in _NAME.findall(source))
        return set(filter(is_name, words))

    found = names(_COEFFICIENT.sub(" ", text)) or names(text)
    if not found:
        raise PolyParseError(f"no variables found in {text!r}")
    if all(_CANONICAL.match(n) for n in found):
        return tuple(f"x{i}" for i in range(1, max(int(n[1:]) for n in found) + 1))
    if found <= set(_ALIASES):
        return tuple(n for n in _ALIASES if n in found)
    raise PolyParseError(
        f"cannot infer variables from {sorted(found)}; "
        "use canonical names x1..xN (or the aliases x, y, z)")
