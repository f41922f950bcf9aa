"""Jacobian algebras as explicit finite-dimensional commutative algebras.

The quotient Jac(f) = K[x]/(df/dx_1, ..., df/dx_n) is materialized through a
reduced Groebner basis of the partial-derivative ideal in graded reverse
lexicographic order.  Finite dimensionality is equivalent to every variable
contributing a pure-power leading monomial, which also bounds the box of
standard monomials.  On top of the monomial basis live normal forms, the
socle, the residue-normalized trace functional, and linear solving in the
quotient.  Products are not computed here: `orbifold.OrbifoldAlgebra` holds
the structure constants, with Jac(f) as its trivial-group case
(`duality.source_algebra`), and the isomorphism-invariant `fingerprint` reads
them.

All coefficient arithmetic happens in Q(zeta_24); nothing is approximated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product as cartesian
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from .linalg import accumulate, add_scaled, echelon, rank, solve_linear
from .poly import ENUMERATION_LIMIT, Poly, grevlex_key
from .scalar import CycScalar

if TYPE_CHECKING:
    from .orbifold import OrbifoldAlgebra

Monomial = tuple[int, ...]

_ZERO = CycScalar.zero()
_ONE = CycScalar.one()


# --- monomial helpers ---------------------------------------------------


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def leading_monomial(p: Poly) -> Monomial:
    """Largest exponent vector of p in grevlex order."""
    if p.is_zero():
        raise ValueError("zero polynomial has no leading monomial")
    return max(p.terms, key=grevlex_key)


def _monic(p: Poly) -> Poly:
    return p.scale(p.terms[leading_monomial(p)].inverse())


# --- division and Buchberger --------------------------------------------


def _reduce_terms(terms: Mapping[Monomial, CycScalar],
                  gens: Sequence[tuple[Monomial, Poly]]) -> dict[Monomial, CycScalar]:
    """Full normal form of a term dict modulo monic generators."""
    work = dict(terms)
    out: dict[Monomial, CycScalar] = {}
    while work:
        mono = max(work, key=grevlex_key)
        coeff = work.pop(mono)
        for lm, g in gens:
            if _divides(lm, mono):
                shift = tuple(m - l for m, l in zip(mono, lm))
                factor = -coeff
                for exps, c in g.terms.items():
                    if exps != lm:
                        accumulate(work, _mono_mul(shift, exps), factor * c)
                break
        else:
            out[mono] = coeff
    return out


def _reduce_poly(p: Poly, gens: Sequence[tuple[Monomial, Poly]]) -> Poly:
    return Poly(p.vars, _reduce_terms(p.terms, gens))


class GroebnerBasis:
    """A reduced, monic Groebner basis in grevlex order."""

    def __init__(self, generators: tuple[Poly, ...]):
        self.generators = generators
        self._reducers = tuple((leading_monomial(g), g) for g in generators)

    def __eq__(self, other: object) -> bool:
        return type(other) is GroebnerBasis and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"GroebnerBasis(generators={self.generators!r})"

    @property
    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(lm for lm, _ in self._reducers)

    def reduce(self, p: Poly) -> Poly:
        """Unique normal form of p modulo the basis."""
        return _reduce_poly(p, self._reducers)


def groebner(gens: Sequence[Poly]) -> GroebnerBasis:
    """Buchberger's algorithm with the normal selection strategy.

    Each pending pair keeps its lcm and grevlex key from its creation on, and
    pairs whose leading monomials are coprime are discarded (first Buchberger
    criterion).  The result is auto-reduced and monic.
    """
    if not gens:
        raise ValueError("empty generator list")
    basis = [(leading_monomial(g), _monic(g)) for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("all generators are zero")
    vars = basis[0][1].vars
    pending: dict[tuple[int, int], tuple] = {}  # pair -> (grevlex key, lcm)

    def add_pairs(new: int) -> None:
        for k in range(new):
            lcm = _mono_lcm(basis[k][0], basis[new][0])
            pending[(k, new)] = (grevlex_key(lcm), lcm)

    for j in range(len(basis)):
        add_pairs(j)
    while pending:
        i, j = min(pending, key=pending.__getitem__)
        _, lcm = pending.pop((i, j))
        (li, fi), (lj, fj) = basis[i], basis[j]  # both monic
        if lcm == _mono_mul(li, lj):
            continue  # coprime leading monomials
        # The S-polynomial is the first step of reducing x^(lcm−li)·fi with fj
        # tried first; the term dict of fi is shifted, no `Poly` is multiplied.
        shift = tuple(l - e for l, e in zip(lcm, li))
        remainder = _reduce_terms({_mono_mul(shift, e): c for e, c in fi.terms.items()},
                                  [(lj, fj), *basis])
        if remainder:
            g = _monic(Poly._clean(vars, remainder))
            basis.append((leading_monomial(g), g))
            add_pairs(len(basis) - 1)

    # Minimalize: keep only generators whose leading monomial is not divisible
    # by another's.  Sorting ascending makes a single greedy pass sufficient.
    basis.sort(key=lambda pair: grevlex_key(pair[0]))
    minimal: list[tuple[Monomial, Poly]] = []
    for lm, g in basis:
        if not any(_divides(other, lm) for other, _ in minimal):
            minimal.append((lm, g))
    # Full inter-reduction of the tails; a leading term no other divides stays 1.
    return GroebnerBasis(tuple(
        Poly._clean(vars, _reduce_terms(g.terms, minimal[:k] + minimal[k + 1:]))
        for k, (_, g) in enumerate(minimal)))


# --- standard monomials ---------------------------------------------------


def _power_box(lms: Sequence[Monomial], arity: int) -> list[int] | None:
    """Per-variable exponent bounds from pure-power leading monomials.

    Returns None when some variable has no pure power among the leading
    monomials, which is exactly the infinite-dimensional case.
    """
    bounds: list[int | None] = [None] * arity
    for lm in lms:
        support = [i for i, e in enumerate(lm) if e]
        if not support:
            return [0] * arity  # the ideal contains a unit
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or lm[i] < bounds[i]:
                bounds[i] = lm[i]
    if any(b is None for b in bounds):
        return None
    return bounds  # type: ignore[return-value]


def _standard_monomials(lms: Sequence[Monomial], bounds: Sequence[int]) -> list[Monomial]:
    size = math.prod(bounds)
    if size > ENUMERATION_LIMIT:
        raise ValueError(f"power box of {size} monomials exceeds the "
                         f"enumeration limit of {ENUMERATION_LIMIT}")
    out = [m for m in cartesian(*(range(b) for b in bounds))
           if not any(_divides(lm, m) for lm in lms)]
    out.sort(key=grevlex_key)
    return out


@lru_cache(maxsize=None)
def _jacobian_ideal(f: Poly) -> tuple[GroebnerBasis, tuple[int, ...]] | None:
    """Groebner basis and power box of (df/dx_1, ..., df/dx_n), memoized per f.

    Returns None when Jac(f) is infinite-dimensional.  In arity 0 the ideal
    is zero and Jac(f) is the field itself.
    """
    n = len(f.vars)
    partials = [f.partial_derivative(i) for i in range(n)]
    if any(p.is_zero() for p in partials):
        return None
    gb = groebner(partials) if partials else GroebnerBasis(())
    bounds = _power_box(gb.leading_monomials, n)
    return None if bounds is None else (gb, tuple(bounds))  # shared by every caller


def has_isolated_singularity(f: Poly) -> bool:
    """True iff the Jacobian algebra of f is finite-dimensional."""
    return _jacobian_ideal(f) is not None


# --- the quotient algebra -------------------------------------------------


class QuotientAlgebra:
    """Jac(f) with an explicit standard-monomial basis.

    Instances are created through :func:`quotient_algebra`; their only
    mutable state is a memo that does not change any result.  Normal forms go
    through one memoized table from exponent tuples to sparse coordinates
    (basis index -> scalar), the multiplication-matrix view of FGLM
    (Faugère–Gianni–Lazard–Mora, J. Symb. Comp. 16, 1993): x^m is x_k·x^(m−e_k)
    for the last variable k of m, so its coordinates combine the classes
    [x_k·b] of basis monomials b.  Such a product is a basis monomial or a
    border monomial, and each border monomial is reduced by the Groebner
    basis once.
    """

    def __init__(self, f: Poly, weights: tuple[int, ...], degree: int,
                 gb: GroebnerBasis, basis: tuple[Monomial, ...],
                 socle: Monomial, hess_nf: Poly):
        self.f = f
        self.vars = f.vars
        self.weights = weights
        self.degree = degree
        self.gb = gb
        self.basis = basis
        self.mu = len(basis)
        self.socle = socle
        self.socle_degree = self.weighted_degree(socle)
        self.hess_nf = hess_nf
        # hess_nf = hess_coeff * socle monomial; nonzero by construction.
        self.hess_coeff = hess_nf.terms[socle]
        self.trace_scale = self.hess_coeff.inverse()
        self.index = {m: i for i, m in enumerate(basis)}
        self._table: dict[Monomial, dict[int, CycScalar]] = {
            m: {i: _ONE} for m, i in self.index.items()}

    def monomial_coords(self, m: Monomial) -> dict[int, CycScalar]:
        """Sparse coordinates of [x^m]: basis index -> nonzero scalar.

        The returned dict is shared with the table and must not be mutated.
        """
        table = self._table
        hit = table.get(m)
        if hit is not None:
            return hit
        if self.weighted_degree(m) > self.socle_degree:
            return {}  # above the socle; not stored, since most are never asked again
        k = max(i for i, e in enumerate(m) if e)
        rest = m[:k] + (m[k] - 1,) + m[k + 1:]
        out: dict[int, CycScalar] = {}
        for b, c in self.monomial_coords(rest).items():
            mono = self.basis[b]
            up = mono[:k] + (mono[k] + 1,) + mono[k + 1:]
            vector = table.get(up)
            if vector is None:  # a border monomial, of degree at most the socle's
                nf = self.gb.reduce(Poly.monomial(self.vars, up))
                vector = table[up] = {self.index[u]: s for u, s in nf.terms.items()}
            add_scaled(out, c, vector)
        table[m] = out
        return out

    def add_term(self, out: dict[int, CycScalar], c: CycScalar, m: Monomial) -> None:
        """out[i] += coordinate i of [c·x^m], for nonzero c."""
        add_scaled(out, c, self.monomial_coords(m))

    def _sparse(self, p: Poly) -> dict[int, CycScalar]:
        if len(p.vars) != len(self.vars):
            raise ValueError("arity mismatch")
        out: dict[int, CycScalar] = {}
        for m, c in p.terms.items():
            self.add_term(out, c, m)
        return out

    def normal_form(self, p: Poly) -> Poly:
        return Poly(self.vars, {self.basis[i]: c for i, c in self._sparse(p).items()})

    def weighted_degree(self, m: Monomial) -> int:
        return sum(w * e for w, e in zip(self.weights, m))

    def __repr__(self) -> str:
        return f"QuotientAlgebra({self.f}, mu={self.mu})"


@lru_cache(maxsize=None)
def quotient_algebra(f: Poly, weights: tuple[int, ...], degree: int) -> QuotientAlgebra:
    """Construct Jac(f) for a weighted homogeneous f.

    Raises if the quotient is infinite-dimensional or the socle candidate is
    not unique; the latter would make the trace normalization ambiguous, so
    the construction aborts rather than picking arbitrarily.
    """
    if not f.is_weighted_homogeneous(weights, degree):
        raise ValueError(f"{f} is not weighted homogeneous for {weights}; degree {degree}")
    ideal = _jacobian_ideal(f)
    if ideal is None:
        raise ValueError(f"Jacobian algebra of {f} is infinite-dimensional")
    gb, bounds = ideal
    basis = tuple(_standard_monomials(gb.leading_monomials, bounds))
    if not basis:
        raise ValueError(f"Jacobian algebra of {f} is zero: its Jacobian ideal contains 1")

    socle_degree = sum(degree - 2 * w for w in weights)
    degrees = [sum(w * e for w, e in zip(weights, m)) for m in basis]
    socle_candidates = [m for m, d in zip(basis, degrees) if d == socle_degree]
    if len(socle_candidates) != 1:
        raise ValueError(
            f"socle of Jac({f}) is not unique: weighted degree {socle_degree} "
            f"is carried by {socle_candidates}")
    if max(degrees) > socle_degree:  # the normal-form table reads such classes as zero
        raise ValueError(f"Jac({f}) has a basis monomial above the socle degree {socle_degree}")
    socle = socle_candidates[0]

    hess_nf = gb.reduce(f.hessian())
    if set(hess_nf.terms) != {socle}:
        raise ValueError(f"Hessian class of {f} is not a nonzero multiple of the socle")
    for i in range(len(f.vars)):
        bumped = tuple(e + (1 if j == i else 0) for j, e in enumerate(socle))
        if not gb.reduce(Poly.monomial(f.vars, bumped)).is_zero():
            raise ValueError(f"socle of Jac({f}) is not annihilated by {f.vars[i]}")

    return QuotientAlgebra(f, weights, degree, gb, basis, socle, hess_nf)


def milnor(f: Poly) -> int:
    """Dimension of Jac(f); raises when it is infinite."""
    ideal = _jacobian_ideal(f)
    if ideal is None:
        raise ValueError(f"Jacobian algebra of {f} is infinite-dimensional")
    gb, bounds = ideal
    return len(_standard_monomials(gb.leading_monomials, bounds))


# --- trace functional ------------------------------------------------------


def trace_functional(algebra: QuotientAlgebra,
                     scale: int | Fraction | CycScalar) -> Callable[[Poly], CycScalar]:
    """The linear functional vanishing off the socle with λ([hess f]) = scale."""
    if isinstance(scale, (int, Fraction)):
        scale = CycScalar.from_rational(scale)
    factor = scale * algebra.trace_scale

    def trace(p: Poly) -> CycScalar:
        nf = algebra.normal_form(p)
        coeff = nf.terms.get(algebra.socle)
        return factor * coeff if coeff is not None else _ZERO

    return trace


# --- linear solving in the quotient ----------------------------------------


def solve_in_quotient(algebra: QuotientAlgebra, a: Poly, b: Poly,
                      candidates: Sequence[Monomial]) -> tuple[Poly, bool]:
    """Find H with [a·H] = [b] in the quotient, H spanned by the given standard monomials.

    Returns a solution in normal form and whether its class is unique:
    whether multiplication by [a] is injective on the candidate span.
    """
    a_nf = algebra.normal_form(a)
    if a_nf.is_zero():
        raise ValueError("cannot solve against the zero class")
    if not candidates:
        raise ValueError("no admissible candidate monomials")

    # Column of m: [a·x^m], read term by term from the normal-form table.
    columns: list[dict[int, CycScalar]] = []
    for m in candidates:
        column: dict[int, CycScalar] = {}
        for e, c in a_nf.terms.items():
            algebra.add_term(column, c, _mono_mul(e, m))
        columns.append(column)
    rhs = algebra._sparse(b)
    matrix = [[column.get(i, _ZERO) for column in columns] for i in range(algebra.mu)]
    particular, nullspace = solve_linear(matrix, [rhs.get(i, _ZERO) for i in range(algebra.mu)],
                                         _ZERO, _ONE)
    if particular is None:
        raise ValueError("no solution in the quotient under the given constraints")
    return Poly(algebra.vars, dict(zip(candidates, particular))), not nullspace


# --- fingerprints -----------------------------------------------------------


class Fingerprint(NamedTuple):
    """Isomorphism invariants of a finite commutative unital algebra.

    `powers` lists dim m^k for k = 0, 1, ... down to the first zero, where m
    is the ideal spanned by the non-identity basis vectors.
    """

    dim: int
    powers: tuple[int, ...]
    socle_dim: int

    def to_json(self) -> dict:
        return {"dim": self.dim, "powers": list(self.powers), "socle_dim": self.socle_dim}


def fingerprint(algebra: OrbifoldAlgebra) -> Fingerprint:
    """Fingerprint of an orbifold algebra; Jac(f) is `duality.source_algebra`.

    The grading makes m a nilpotent ideal.  The indices of m that are not
    pivots of the sparse echelon of m² span a complement V of m² in m, a
    minimal generating set of m.  So mᵏ = V·mᵏ⁻¹ (Nakayama): each power is
    multiplied by V alone, and the socle ann(m) is ann(V).
    """
    n, one = algebra.dim, algebra.identity_index
    radical = [i for i in range(n) if i != one]
    # Graded commutativity: e_j·e_i = ±e_i·e_j, so the pairs i <= j span m².
    power = echelon(algebra.basis_product(i, j) for i in radical for j in radical if i <= j)
    gens = [i for i in radical if i not in power]
    powers = [n, n - 1] if radical else [n]
    while power:
        powers.append(len(power))
        power = echelon(algebra.product({v: _ONE}, row) for v in gens for row in power.values())
    powers.append(0)
    # Column j of multiplication by V: x = Σ x_j e_j lies in the socle iff V·x = 0.
    columns = ({(v, k): c for v in gens for k, c in algebra.basis_product(v, j).items()}
               for j in range(n))
    return Fingerprint(n, tuple(powers), n - rank(columns))
