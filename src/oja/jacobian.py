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

from .linalg import rank, rref, solve_linear
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
        if coeff.is_zero():
            continue
        for lm, g in gens:
            if _divides(lm, mono):
                shift = tuple(m - l for m, l in zip(mono, lm))
                for exps, c in g.terms.items():
                    if exps == lm:
                        continue
                    key = _mono_mul(shift, exps)
                    prev = work.get(key)
                    work[key] = prev - coeff * c if prev is not None else -(coeff * c)
                break
        else:
            out[mono] = coeff
    return out


def _reduce_poly(p: Poly, gens: Sequence[tuple[Monomial, Poly]]) -> Poly:
    return Poly(p.vars, _reduce_terms(p.terms, gens))


def _spoly(f: Poly, g: Poly) -> Poly:
    lf, lg = leading_monomial(f), leading_monomial(g)
    lcm = _mono_lcm(lf, lg)
    a = Poly.monomial(f.vars, tuple(l - e for l, e in zip(lcm, lf)))
    b = Poly.monomial(g.vars, tuple(l - e for l, e in zip(lcm, lg)))
    return a * f - b * g


class GroebnerBasis:
    """A reduced, monic Groebner basis in grevlex order."""

    order = "grevlex"

    def __init__(self, generators: tuple[Poly, ...]):
        self.generators = generators
        self._reducers = tuple((leading_monomial(g), g) for g in generators)

    def __eq__(self, other: object) -> bool:
        return type(other) is GroebnerBasis and self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.generators, self.order))

    def __repr__(self) -> str:
        return f"GroebnerBasis(generators={self.generators!r}, order={self.order!r})"

    @property
    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(lm for lm, _ in self._reducers)

    def reduce(self, p: Poly) -> Poly:
        """Unique normal form of p modulo the basis."""
        return _reduce_poly(p, self._reducers)


def groebner(gens: Sequence[Poly]) -> GroebnerBasis:
    """Buchberger's algorithm with the normal selection strategy.

    Pairs whose leading monomials are coprime are discarded (first Buchberger
    criterion), as are pairs subsumed by an already-processed third generator
    (chain criterion).  The result is auto-reduced and monic.
    """
    if not gens:
        raise ValueError("empty generator list")
    basis = [_monic(g) for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("all generators are zero")
    lms = [leading_monomial(g) for g in basis]  # kept in step with `basis`
    pending = {(i, j) for i in range(len(basis)) for j in range(i)}

    while pending:
        i, j = min(pending, key=lambda pair: grevlex_key(_mono_lcm(lms[pair[0]], lms[pair[1]])))
        pending.discard((i, j))
        lcm = _mono_lcm(lms[i], lms[j])
        if lcm == _mono_mul(lms[i], lms[j]):
            continue  # coprime leading monomials
        if any(k != i and k != j and _divides(lms[k], lcm)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k in range(len(basis))):
            continue  # chain criterion
        remainder = _reduce_poly(_spoly(basis[i], basis[j]), list(zip(lms, basis)))
        if remainder.is_zero():
            continue
        basis.append(_monic(remainder))
        lms.append(leading_monomial(basis[-1]))
        new = len(basis) - 1
        pending.update((k, new) for k in range(new))

    # Minimalize: keep only generators whose leading monomial is not divisible
    # by another's.  Sorting ascending makes a single greedy pass sufficient.
    basis.sort(key=lambda g: grevlex_key(leading_monomial(g)))
    minimal: list[Poly] = []
    for g in basis:
        if not any(_divides(leading_monomial(h), leading_monomial(g)) for h in minimal):
            minimal.append(g)
    # Full inter-reduction of the tails.
    reduced = []
    for idx, g in enumerate(minimal):
        others = [(leading_monomial(h), h) for k, h in enumerate(minimal) if k != idx]
        reduced.append(_monic(_reduce_poly(g, others)))
    return GroebnerBasis(tuple(reduced))


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

    Instances are immutable and are created through :func:`quotient_algebra`.
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
        self.hess_nf = hess_nf
        # hess_nf = hess_coeff * socle monomial; nonzero by construction.
        self.hess_coeff = hess_nf.terms[socle]
        self.trace_scale = self.hess_coeff.inverse()
        self.index = {m: i for i, m in enumerate(basis)}

    def normal_form(self, p: Poly) -> Poly:
        if len(p.vars) != len(self.vars):
            raise ValueError("arity mismatch")
        return self.gb.reduce(p)

    def coords(self, p: Poly) -> list[CycScalar]:
        """Coordinates of [p] over the standard-monomial basis."""
        nf = self.normal_form(p)
        vec = [_ZERO] * self.mu
        for m, c in nf.terms.items():
            vec[self.index[m]] = c
        return vec

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

    socle_degree = sum(degree - 2 * w for w in weights)
    socle_candidates = [m for m in basis
                        if sum(w * e for w, e in zip(weights, m)) == socle_degree]
    if len(socle_candidates) != 1:
        raise ValueError(
            f"socle of Jac({f}) is not unique: weighted degree {socle_degree} "
            f"is carried by {socle_candidates}")
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
                      degree: int | None = None,
                      invariant_under: Sequence[Sequence[Fraction]] | None = None,
                      ) -> tuple[Poly, bool]:
    """Find H with [a·H] = [b] in the quotient, constrained as requested.

    H is sought among standard monomials m, optionally of one weighted degree
    and with Σᵢ phases[i]·m[i] integral for every phase vector in
    `invariant_under`.  For a weighted homogeneous G-invariant f the Groebner
    basis consists of homogeneous G-eigenvectors, so these monomials span
    every admissible class.  Returns a solution in normal form and whether its class is unique:
    whether multiplication by [a] is injective on the candidate span.
    """
    a_nf = algebra.normal_form(a)
    if a_nf.is_zero():
        raise ValueError("cannot solve against the zero class")

    def admissible(m: Monomial) -> bool:
        if degree is not None and algebra.weighted_degree(m) != degree:
            return False
        if invariant_under:
            for phases in invariant_under:
                if sum(Fraction(ph) * e for ph, e in zip(phases, m)) % 1 != 0:
                    return False
        return True

    candidates = [m for m in algebra.basis if admissible(m)]
    if not candidates:
        raise ValueError("no admissible candidate monomials")

    columns = [algebra.coords(a_nf * Poly.monomial(algebra.vars, m)) for m in candidates]
    matrix = [[columns[j][i] for j in range(len(candidates))] for i in range(algebra.mu)]
    particular, nullspace = solve_linear(matrix, algebra.coords(b), _ZERO, _ONE)
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

    def __str__(self) -> str:
        return (f"dim {self.dim}, radical powers "
                f"({', '.join(str(d) for d in self.powers)}), socle dim {self.socle_dim}")

    def to_json(self) -> dict:
        return {"dim": self.dim, "powers": list(self.powers), "socle_dim": self.socle_dim}


def _span_dim(vectors: list[list[CycScalar]]) -> list[list[CycScalar]]:
    """Row-reduce and drop zero rows, returning a basis of the span."""
    if not vectors:
        return []
    reduced, pivots = rref(vectors)
    return reduced[:len(pivots)]


def _degree_blocks(algebra: OrbifoldAlgebra) -> tuple[list[int], list[list[int | None]]]:
    """Integer block id of each basis index, and the block id of a product.

    Blocks are the weighted degrees when every structure constant (i, j) -> k
    has deg k = deg i + deg j; otherwise every index shares block 0.
    `plus[a][b]` is the block of a product of blocks a and b, or None when
    that degree carries no basis vector.
    """
    den = math.lcm(*(d.denominator for d in algebra.degrees))
    ids: dict[int, int] = {}  # degree * den -> block id; integer sums below
    block = [ids.setdefault(d.numerator * (den // d.denominator), len(ids))
             for d in algebra.degrees]
    plus = [[ids.get(a + b) for b in ids] for a in ids]
    if all(block[k] == plus[block[i]][block[j]]
           for (i, j), row in algebra.structure.items() for k in row):
        return block, plus
    return [0] * algebra.dim, [[0]]


def fingerprint(algebra: OrbifoldAlgebra) -> Fingerprint:
    """Fingerprint of an orbifold algebra; Jac(f) is `duality.source_algebra`.

    m^k and the socle are graded, so each is computed per degree block, over
    that block's coordinates only.
    """
    n = algebra.dim
    one = algebra.identity_index
    generators = [i for i in range(n) if i != one]
    block, plus = _degree_blocks(algebra)
    members: list[list[int]] = [[] for _ in plus]
    for i, b in enumerate(block):
        members[b].append(i)
    local = [0] * n
    for indices in members:
        for p, i in enumerate(indices):
            local[i] = p

    # m^k as one list of spanning vectors per block.
    current = [[[_ONE if q == p else _ZERO for q in range(len(indices))]
                for p, i in enumerate(indices) if i != one] for indices in members]
    powers = [n]
    while any(current):
        powers.append(sum(map(len, current)))
        products: list[list[list[CycScalar]]] = [[] for _ in members]
        for i in generators:
            for b, vectors in enumerate(current):
                t = plus[block[i]][b]
                if t is None:
                    continue  # the grading check leaves these products zero
                for vec in vectors:
                    out = [_ZERO] * len(members[t])
                    for j, c in zip(members[b], vec):
                        if c:
                            for k, s in algebra.basis_product(i, j).items():
                                out[local[k]] = out[local[k]] + c * s
                    if any(out):
                        products[t].append(out)
        current = [_span_dim(vectors) for vectors in products]
    powers.append(0)

    # Socle: simultaneous kernel of multiplication by every generator of m.
    socle_dim = 0
    for b, indices in enumerate(members):
        rows = []
        for i in generators:
            t = plus[block[i]][b]
            if t is not None:
                mats = [algebra.basis_product(i, j) for j in indices]
                rows.extend([m.get(k, _ZERO) for m in mats] for k in members[t])
        socle_dim += len(indices) - rank(rows)
    return Fingerprint(n, tuple(powers), socle_dim)
