"""Twisted and orbifold Jacobian algebras of invertible polynomials.

For a symmetry group G (trivial, Z/2, or Z/3 inside the SL subgroup) the
twisted algebra Jac'(f,G) is the direct sum of the sector algebras
Jac(f^g)·v_g, where f^g restricts f to the fixed variables of g.  The
product of [φ]v_g and [ψ]v_h vanishes unless the fixed loci of g, h, gh
cover all coordinates; otherwise it is

    (-1)^((N-N_g)(N-N_g-1)/2) · e[-age(g)/2] · [φ ψ H_{g,h}] v_{gh},

with the correction class H_{g,h} pinned by the Hessian-ratio equation

    (1/μ_{g∩h}) [hess(f^{g∩h}) · H] = (1/μ_{gh}) [hess(f^{gh})]  in Jac(f^{gh}),

solved among G-invariant classes of the expected weighted degree (the class
is asserted unique).  `twisted_algebra` keeps Jac'(f,G) as this product rule
and checks from the prefactors that v_id is its unit.  `OrbifoldAlgebra` is its
G-invariant part Jac(f,G), built from invariant products alone and carrying
the trace pairing normalized by λ([hess f]) = |G|·μ_f.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Mapping, NamedTuple, Sequence

from .jacobian import Monomial, QuotientAlgebra, quotient_algebra, solve_in_quotient
from .linalg import add_scaled, rank
from .poly import Poly
from .scalar import CycScalar
from .symmetry import GroupElement, InvertiblePoly, SymmetryGroup, is_sl_symmetry

_ZERO = CycScalar.zero()
_ONE = CycScalar.one()


class Sector(NamedTuple):
    """One summand Jac(f^g)·v_g of the twisted algebra."""

    fixed: tuple[int, ...]
    f_g: Poly
    algebra: QuotientAlgebra
    parity: int

    def lift(self, m: Monomial, arity: int) -> Monomial:
        """Sector-local exponents placed at the ambient fixed positions."""
        at = dict(zip(self.fixed, m))
        return tuple(at.get(i, 0) for i in range(arity))


def fix_union_holds(g: GroupElement, h: GroupElement) -> bool:
    """True iff Fix(g) ∪ Fix(h) ∪ Fix(gh) covers every coordinate."""
    return len({*g.fixed_indices(), *h.fixed_indices(), *(g * h).fixed_indices()}) == g.arity


def _check_group(ip: InvertiblePoly, group: SymmetryGroup) -> None:
    if group.order not in (1, 2, 3):
        raise ValueError(
            f"unsupported group of order {group.order}: only the trivial group "
            "and cyclic groups of order 2 or 3 are in scope")
    for g in group:
        if g.arity != ip.arity:
            raise ValueError("group arity does not match the polynomial")
        if is_sl_symmetry(ip, g):
            continue
        if not all(map(g.fixes_monomial, ip.exponents)):
            raise ValueError(f"({g}) does not preserve {ip.poly}")
        raise ValueError(f"({g}) lies outside the SL subgroup (age {g.age()})")


def build_sectors(ip: InvertiblePoly, group: SymmetryGroup) -> dict[GroupElement, Sector]:
    """One sector per group element, each with its own quotient algebra."""
    _check_group(ip, group)
    n = ip.arity
    sectors = {}
    for g in group:
        fixed = g.fixed_indices()
        f_g = ip.poly.restrict(fixed)
        weights = tuple(ip.weights[i] for i in fixed)
        algebra = quotient_algebra(f_g, weights, ip.degree)
        sectors[g] = Sector(fixed, f_g, algebra, (n - len(fixed)) % 2)
    return sectors


def compute_H(ip: InvertiblePoly, group: SymmetryGroup, g: GroupElement, h: GroupElement,
              sectors: Mapping[GroupElement, Sector]) -> Poly:
    """The correction class H_{g,h}, in the variables fixed by gh.

    For an identity factor the defining equation collapses and H = 1.
    Otherwise the Hessian-ratio equation is solved among classes of weighted
    degree Σ_{i ∈ Fix(gh) \\ Fix(g)∩Fix(h)} (d − 2wᵢ) that are invariant under
    the G-action; the solution class must be unique.  `sectors` is
    `build_sectors(ip, group)`.
    """
    if not fix_union_holds(g, h):
        raise ValueError("fixed loci do not cover all coordinates; the product is zero")
    target_sector = sectors[g * h]
    target = target_sector.algebra
    if g.is_identity() or h.is_identity():
        return Poly.constant(target_sector.f_g.vars, _ONE)

    cap = tuple(i for i in g.fixed_indices() if i in set(h.fixed_indices()))
    f_cap = ip.poly.restrict(cap)
    cap_algebra = quotient_algebra(f_cap, tuple(ip.weights[i] for i in cap), ip.degree)
    gh_fixed = target_sector.fixed
    positions = [gh_fixed.index(i) for i in cap]  # Fix(g)∩Fix(h) ⊆ Fix(gh)
    lifted_hess = f_cap.hessian().embed(target_sector.f_g.vars, positions)

    a = lifted_hess.scale(CycScalar.from_rational(Fraction(1, cap_algebra.mu)))
    b = target.hess_nf.scale(CycScalar.from_rational(Fraction(1, target.mu)))
    degree = sum(ip.degree - 2 * ip.weights[i] for i in gh_fixed if i not in set(cap))
    # The Groebner basis of a weighted homogeneous G-invariant f consists of
    # homogeneous G-eigenvectors, so these monomials span every admissible class.
    candidates = [m for m in target.basis if target.weighted_degree(m) == degree
                  and all(q.fixes_monomial(target_sector.lift(m, ip.arity)) for q in group)]
    solution, unique = solve_in_quotient(target, a, b, candidates)
    if not unique:
        raise ValueError(f"H_({g}),({h}) is not determined uniquely")
    return solution


def _prefactor(arity: int, g: GroupElement) -> CycScalar:
    moved = arity - len(g.fixed_indices())
    sign = _ONE if (moved * (moved - 1) // 2) % 2 == 0 else -_ONE
    shift = (-g.age() / 2) % 1
    return sign * CycScalar.root_of_unity(shift.numerator, shift.denominator)


class OrbifoldAlgebra:
    """The orbifold Jacobian algebra Jac(f,G), with structure constants.

    Elements are sparse coordinate dicts over `basis`: G-invariant pairs (group
    element, sector-local standard monomial).  The structure tensor, Gram
    rows (checked nondegenerate) and weighted degrees are all materialized
    at construction; instances are immutable.  The trace reads one
    coordinate: the socle of the identity sector.
    """

    def __init__(self, ip: InvertiblePoly, group: SymmetryGroup,
                 sectors: Mapping[GroupElement, Sector],
                 basis: Sequence[tuple[GroupElement, Monomial]],
                 structure: Mapping[tuple[int, int], dict[int, CycScalar]]):
        self.ip = ip
        self.group = group
        self.sectors = dict(sectors)
        self.basis = tuple(basis)
        self.structure = dict(structure)
        self._pos = {key: i for i, key in enumerate(self.basis)}
        self.parities = tuple(self.sectors[g].parity for g, _ in self.basis)

        identity = GroupElement.identity(ip.arity)
        id_algebra = self.sectors[identity].algebra
        self.identity_index = self._pos[(identity, (0,) * ip.arity)]
        self.scale = group.order * id_algebra.mu
        self._socle = self._pos[(identity, id_algebra.socle)]
        self._trace_factor = CycScalar.from_rational(self.scale) * id_algebra.trace_scale

        # deg [x^m]v_g = Σ_{i∈Fix g} qᵢmᵢ + Σ_{i∉Fix g} (1/2 − qᵢ) with qᵢ = wᵢ/d,
        # as one fraction over 2d; the age shift is summed once per sector.
        w, d = ip.weights, ip.degree
        shift = {g: sum(d - 2 * w[i] for i in range(ip.arity) if i not in s.fixed)
                 for g, s in self.sectors.items()}
        self.degrees = tuple(
            Fraction(2 * sum(w[i] * e for i, e in zip(self.sectors[g].fixed, m)) + shift[g], 2 * d)
            for g, m in self.basis)

        # gram[i] = {j: η(e_i, e_j)}, sparse like every element.
        self.gram: list[dict[int, CycScalar]] = [{} for _ in self.basis]
        for (i, j), row in self.structure.items():
            if self._socle in row:
                self.gram[i][j] = row[self._socle] * self._trace_factor
        if rank(self.gram) != self.dim:
            raise ValueError("Frobenius pairing is degenerate; construction is inconsistent")

    # -- basics --

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_product(self, i: int, j: int) -> dict[int, CycScalar]:
        return self.structure.get((i, j), {})

    # -- elements as sparse coordinate dicts --
    #
    # An element is {basis index: nonzero coordinate}; no zero is stored, so
    # equal elements are equal dicts.  Coordinates may come from any
    # commutative ring that holds the structure constants (scalars, or
    # polynomials in unknowns).

    def identity_vector(self, one=_ONE) -> dict:
        return {self.identity_index: one}

    def element(self, p: Poly, g: GroupElement) -> dict[int, CycScalar]:
        """Coordinates of [p]·v_g for an ambient polynomial p."""
        sector = self.sectors[g]
        nf = sector.algebra.normal_form(p.restrict(sector.fixed))
        out = {}
        for m, c in nf.terms.items():
            index = self._pos.get((g, m))
            if index is None:
                raise ValueError(f"[{p}]v_({g}) is not supported on this basis "
                                 "(non-invariant component)")
            out[index] = c
        return out

    def product(self, u: Mapping, v: Mapping) -> dict:
        out: dict = {}
        for i, cu in u.items():
            for j, cv in v.items():
                if row := self.structure.get((i, j)):
                    add_scaled(out, cu * cv, row)
        return out

    def trace(self, u: Mapping, zero=_ZERO):
        """ε(u): the socle coordinate times the trace factor, else the ring's `zero`."""
        c = u.get(self._socle)
        return zero if c is None else c * self._trace_factor

    def pairing(self, u: Mapping, v: Mapping, zero=_ZERO):
        """η(u, v) = Σ u_a v_b gram[a][b] over stored entries: ε(u∘v), no product."""
        gram = self.gram
        return sum((cu * cv * c for a, cu in u.items()
                    for b, cv in v.items() if (c := gram[a].get(b))), zero)

    def label(self, i: int) -> str:
        g, m = self.basis[i]
        lifted = self.sectors[g].lift(m, self.ip.arity)
        sector = "id" if g.is_identity() else str(g)
        return f"[{Poly.monomial(self.ip.vars, lifted)}] v_({sector})"

    def vector_str(self, u: Mapping[int, CycScalar]) -> str:
        parts = [f"({c}) {self.label(i)}" for i, c in sorted(u.items())]
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "polynomial": self.ip.poly.to_json(),
            "group": [str(g) for g in self.group],
            "invariant_only": True,
            "sectors": [{
                "element": str(g),
                "fixed": list(s.fixed),
                "basis": [list(m) for m in s.algebra.basis],
                "mu": s.algebra.mu,
            } for g, s in self.sectors.items()],
            "basis": [self.label(i) for i in range(self.dim)],
            "parities": list(self.parities),
            "degrees": [str(d) for d in self.degrees],
            "structure": [[i, j, k, c.to_json()]
                          for (i, j), row in sorted(self.structure.items())
                          for k, c in sorted(row.items())],
            "gram": [[row.get(j, _ZERO).to_json() for j in range(self.dim)]
                     for row in self.gram],
        }

    def __repr__(self) -> str:
        return f"OrbifoldAlgebra[Jac(f,G), dim={self.dim}]"


class TwistedAlgebra(NamedTuple):
    """Jac'(f,G) as a product rule, with no structure tensor.

    `lifted[g]` holds sector g's standard monomials at ambient positions.  The
    product of sectors g and h vanishes unless `correction[g, h]` holds
    prefactor(g)·H_{g,h}, as (exponents on Fix(gh), coefficient) pairs.
    """

    ip: InvertiblePoly
    group: SymmetryGroup
    sectors: dict[GroupElement, Sector]
    lifted: dict[GroupElement, tuple[Monomial, ...]]
    correction: dict[tuple[GroupElement, GroupElement], tuple[tuple[Monomial, CycScalar], ...]]

    def products(self, g: GroupElement, h: GroupElement, rows: Sequence[tuple[int, Monomial]],
                 cols: Sequence[tuple[int, Monomial]], index: Sequence[int | None]) -> dict:
        """The products of sector g's `rows` with sector h's `cols`, keyed by index pair.

        Rows and columns are (output index, ambient exponent) pairs; `index`
        maps the target sector's basis positions to output indices, None
        outside the output basis (ValueError).  Each distinct ambient exponent
        is reduced once, and the pairs that share it share its entry.
        """
        target = self.sectors[g * h]
        moved = [k for k in range(self.ip.arity) if k not in target.fixed]
        reduced, structure = {}, {}
        for a, x in rows:
            for b, y in cols:
                ambient = tuple(map(add, x, y))
                entry = reduced.get(ambient)
                if entry is None:
                    local: dict[int, CycScalar] = {}
                    # H_{g,h} lives on Fix(gh), so a factor x_k outside it kills the product.
                    if not any(ambient[k] for k in moved):
                        for exps, c in self.correction[g, h]:
                            target.algebra.add_term(local, c, tuple(
                                ambient[k] + e for k, e in zip(target.fixed, exps)))
                    entry = reduced[ambient] = {index[k]: c for k, c in local.items()}
                    if None in entry:
                        raise ValueError("invariant basis is not closed under the product")
                if entry:
                    structure[(a, b)] = entry
        return structure


def twisted_algebra(ip: InvertiblePoly, group: SymmetryGroup) -> TwistedAlgebra:
    """Jac'(f,G) as a product rule, of which v_id must be the two-sided unit."""
    sectors = build_sectors(ip, group)
    n = ip.arity
    prefactor = {g: _prefactor(n, g) for g in group}
    correction = {(g, h): tuple((e, prefactor[g] * c)
                                for e, c in compute_H(ip, group, g, h, sectors).terms.items())
                  for g in group for h in group if fix_union_holds(g, h)}
    # H = 1 when a factor is the identity and prefactor(id) = 1, so v_id·[x]v_g = [x]v_g
    # and [x]v_g·v_id = prefactor(g)·[x]v_g: v_id is the unit iff every prefactor is 1.
    if any(c != _ONE for c in prefactor.values()):
        raise ValueError("v_id is not a two-sided unit for this group configuration; "
                         "the product formula does not apply")
    lifted = {g: tuple(s.lift(m, n) for m in s.algebra.basis) for g, s in sectors.items()}
    return TwistedAlgebra(ip, group, sectors, lifted, correction)


def invariant_subalgebra(twisted: TwistedAlgebra) -> OrbifoldAlgebra:
    """Jac(f,G): only the G-invariant basis elements of Jac'(f,G) are multiplied."""
    basis: list[tuple[GroupElement, Monomial]] = []
    index: dict[GroupElement, list[int | None]] = {}  # sector position -> Jac(f,G) index
    kept = {}
    for g, sector in twisted.sectors.items():
        index[g], kept[g] = [None] * sector.algebra.mu, []
        for a, x in enumerate(twisted.lifted[g]):
            if all(q.fixes_monomial(x) for q in twisted.group):  # [x^m]v_g fixed by every q
                index[g][a] = len(basis)
                kept[g].append((len(basis), x))
                basis.append((g, sector.algebra.basis[a]))
    structure = {}
    for g, h in twisted.correction:
        structure.update(twisted.products(g, h, kept[g], kept[h], index[g * h]))
    return OrbifoldAlgebra(twisted.ip, twisted.group, twisted.sectors, basis, structure)


@lru_cache(maxsize=None)
def orbifold_algebra(ip: InvertiblePoly, group: SymmetryGroup) -> OrbifoldAlgebra:
    """Jac(f,G): the G-invariant subalgebra of the twisted algebra, cached."""
    return invariant_subalgebra(twisted_algebra(ip, group))
