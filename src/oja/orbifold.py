"""Twisted and orbifold Jacobian algebras of invertible polynomials.

For a symmetry group G (trivial, Z/2, or Z/3 inside the SL subgroup) the
twisted algebra is the direct sum of the sector algebras Jac(f^g)·v_g, where
f^g restricts f to the fixed variables of g.  The product of [φ]v_g and
[ψ]v_h vanishes unless the fixed loci of g, h, gh cover all coordinates;
otherwise it is

    (-1)^((N-N_g)(N-N_g-1)/2) · e[-age(g)/2] · [φ ψ H_{g,h}] v_{gh},

with the correction class H_{g,h} pinned by the Hessian-ratio equation

    (1/μ_{g∩h}) [hess(f^{g∩h}) · H] = (1/μ_{gh}) [hess(f^{gh})]  in Jac(f^{gh}),

solved among G-invariant classes of the expected weighted degree (the class
is asserted unique).  The orbifold algebra is the G-invariant part, carrying
the trace pairing normalized by λ([hess f]) = |G|·μ_f.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Mapping, NamedTuple, Sequence

from .jacobian import Monomial, QuotientAlgebra, quotient_algebra, solve_in_quotient
from .linalg import rank
from .poly import Poly
from .scalar import CycScalar
from .symmetry import GroupElement, InvertiblePoly, SymmetryGroup, is_sl_symmetry

_ZERO = CycScalar.zero()
_ONE = CycScalar.one()


class Sector(NamedTuple):
    """One summand Jac(f^g)·v_g of the twisted algebra."""

    g: GroupElement
    fixed: tuple[int, ...]
    f_g: Poly
    algebra: QuotientAlgebra
    parity: int

    def lift(self, m: Monomial, arity: int) -> Monomial:
        """Sector-local exponents placed at the ambient fixed positions."""
        out = [0] * arity
        for j, e in enumerate(m):
            out[self.fixed[j]] = e
        return tuple(out)


def fix_union_holds(g: GroupElement, h: GroupElement) -> bool:
    """True iff Fix(g) ∪ Fix(h) ∪ Fix(gh) covers every coordinate."""
    covered = set(g.fixed_indices()) | set(h.fixed_indices())
    covered |= set((g * h).fixed_indices())
    return len(covered) == g.arity


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
        sectors[g] = Sector(g, fixed, f_g, algebra, (n - len(fixed)) % 2)
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
    characters = [(tuple(q.num[i] for i in gh_fixed), q.den)
                  for q in group if not q.is_identity()]
    solution, unique = solve_in_quotient(target, a, b, degree=degree,
                                         invariant_under=characters)
    if not unique:
        raise ValueError(f"H_({g}),({h}) is not determined uniquely")
    return solution


def _prefactor(arity: int, g: GroupElement) -> CycScalar:
    moved = arity - len(g.fixed_indices())
    sign = _ONE if (moved * (moved - 1) // 2) % 2 == 0 else -_ONE
    shift = (-g.age() / 2) % 1
    return sign * CycScalar.root_of_unity(shift.numerator, shift.denominator)


class OrbifoldAlgebra:
    """Jac'(f,G) or its G-invariant part Jac(f,G), with structure constants.

    Elements are coordinate vectors over `basis`, whose entries are pairs
    (group element, sector-local standard monomial).  The structure tensor,
    Gram matrix, and weighted degrees are all materialized at construction;
    instances are immutable.  The trace reads one coordinate: the socle of
    the identity sector.
    """

    def __init__(self, ip: InvertiblePoly, group: SymmetryGroup,
                 sectors: Mapping[GroupElement, Sector],
                 basis: Sequence[tuple[GroupElement, Monomial]],
                 structure: Mapping[tuple[int, int], dict[int, CycScalar]],
                 invariant_only: bool):
        self.ip = ip
        self.group = group
        self.sectors = dict(sectors)
        self.basis = tuple(basis)
        self.structure = {k: dict(v) for k, v in structure.items() if v}
        self.invariant_only = invariant_only
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

        dim = len(self.basis)
        self.gram = [[_ZERO] * dim for _ in range(dim)]
        for (i, j), row in self.structure.items():
            if self._socle in row:
                self.gram[i][j] = row[self._socle] * self._trace_factor
        if invariant_only and rank([row[:] for row in self.gram]) != dim:
            raise ValueError("Frobenius pairing is degenerate; construction is inconsistent")

    # -- basics --

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_product(self, i: int, j: int) -> dict[int, CycScalar]:
        return self.structure.get((i, j), {})

    def basis_vector_product(self, i: int, j: int) -> list[CycScalar]:
        out = [_ZERO] * self.dim
        for k, c in self.basis_product(i, j).items():
            out[k] = c
        return out

    # -- elements as coordinate vectors --
    #
    # Coordinates may come from any commutative ring that holds the structure
    # constants (scalars, or polynomials in unknowns); callers pass that
    # ring's zero and one.

    def zero_vector(self, zero=_ZERO) -> list:
        return [zero] * self.dim

    def identity_vector(self, zero=_ZERO, one=_ONE) -> list:
        out = self.zero_vector(zero)
        out[self.identity_index] = one
        return out

    def element(self, p: Poly, g: GroupElement) -> list[CycScalar]:
        """Coordinates of [p]·v_g for an ambient polynomial p."""
        sector = self.sectors[g]
        nf = sector.algebra.normal_form(p.restrict(sector.fixed))
        out = self.zero_vector()
        for m, c in nf.terms.items():
            index = self._pos.get((g, m))
            if index is None:
                raise ValueError(f"[{p}]v_({g}) is not supported on this basis "
                                 "(non-invariant component)")
            out[index] = c
        return out

    def product(self, u: Sequence, v: Sequence, zero=_ZERO) -> list:
        out = self.zero_vector(zero)
        right = [(j, cv) for j, cv in enumerate(v) if not cv.is_zero()]
        for i, cu in enumerate(u):
            if cu.is_zero():
                continue
            for j, cv in right:
                row = self.structure.get((i, j))
                if row:
                    c = cu * cv
                    for k, s in row.items():
                        out[k] = out[k] + c * s
        return out

    def trace(self, u: Sequence):
        c = u[self._socle]
        return c if c.is_zero() else c * self._trace_factor

    def pairing(self, u: Sequence, v: Sequence, zero=_ZERO):
        """η(u, v) = Σ u_a v_b gram[a][b] over nonzero entries: ε(u∘v), no product."""
        right = [(b, cv) for b, cv in enumerate(v) if not cv.is_zero()]
        return sum((cu * cv * self.gram[a][b] for a, cu in enumerate(u) if not cu.is_zero()
                    for b, cv in right if not self.gram[a][b].is_zero()), zero)

    def label(self, i: int) -> str:
        g, m = self.basis[i]
        lifted = self.sectors[g].lift(m, self.ip.arity)
        mono = "1" if not any(lifted) else str(Poly.monomial(self.ip.vars, lifted))
        sector = "id" if g.is_identity() else str(g)
        return f"[{mono}] v_({sector})"

    def vector_str(self, u: Sequence[CycScalar]) -> str:
        parts = [f"({c}) {self.label(i)}" for i, c in enumerate(u) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "polynomial": self.ip.poly.to_json(),
            "group": [str(g) for g in self.group],
            "invariant_only": self.invariant_only,
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
            "gram": [[c.to_json() for c in row] for row in self.gram],
        }

    def __repr__(self) -> str:
        kind = "Jac(f,G)" if self.invariant_only else "Jac'(f,G)"
        return f"OrbifoldAlgebra[{kind}, dim={self.dim}]"


def twisted_algebra(ip: InvertiblePoly, group: SymmetryGroup) -> OrbifoldAlgebra:
    """Build Jac'(f,G) with its full structure tensor.

    Each product of sector elements is read from the target sector's
    normal-form table once per distinct (g, h, ambient exponent) triple;
    many basis pairs share one.
    """
    sectors = build_sectors(ip, group)
    n = ip.arity
    basis: list[tuple[GroupElement, Monomial]] = []
    spans: dict[GroupElement, range] = {}
    for g in group:
        spans[g] = range(len(basis), len(basis) + sectors[g].algebra.mu)
        basis.extend((g, m) for m in sectors[g].algebra.basis)
    lifted = [sectors[g].lift(m, n) for g, m in basis]

    structure: dict[tuple[int, int], dict[int, CycScalar]] = {}
    for g in group:
        pre = _prefactor(n, g)
        for h in group:
            if not fix_union_holds(g, h):
                continue
            target = sectors[g * h]
            start = spans[target.g].start
            moved = [k for k in range(n) if k not in target.fixed]
            # H_{g,h} as (exponents on Fix(gh), prefactor(g) · coefficient) pairs.
            correction = [(e, pre * c)
                          for e, c in compute_H(ip, group, g, h, sectors).terms.items()]
            reduced: dict[Monomial, dict[int, CycScalar]] = {}
            for i in spans[g]:
                for j in spans[h]:
                    ambient = tuple(map(add, lifted[i], lifted[j]))
                    entry = reduced.get(ambient)
                    if entry is None:
                        entry = reduced[ambient] = {}
                        # H_{g,h} lives on Fix(gh), so a factor x_k outside it kills the product.
                        if not any(ambient[k] for k in moved):
                            for exps, c in correction:
                                local = tuple(ambient[k] + e for k, e in zip(target.fixed, exps))
                                target.algebra.add_term(entry, c, local, start)
                    if entry:
                        structure[(i, j)] = entry

    algebra = OrbifoldAlgebra(ip, group, sectors, basis, structure, invariant_only=False)
    _check_unit(algebra)
    return algebra


def _check_unit(algebra: OrbifoldAlgebra) -> None:
    one = algebra.identity_index
    for i in range(algebra.dim):
        left = algebra.basis_product(one, i)
        right = algebra.basis_product(i, one)
        if left != {i: _ONE} or right != {i: _ONE}:
            raise ValueError(
                "v_id is not a two-sided unit for this group configuration; "
                "the product formula does not apply")


def invariant_subalgebra(algebra: OrbifoldAlgebra) -> OrbifoldAlgebra:
    """Restrict Jac'(f,G) to its G-invariant part Jac(f,G)."""
    arity = algebra.ip.arity
    keep = [i for i, (g, m) in enumerate(algebra.basis)  # [x^m]v_g fixed by every q
            if all(q.fixes_monomial(algebra.sectors[g].lift(m, arity)) for q in algebra.group)]
    position = {old: new for new, old in enumerate(keep)}
    structure: dict[tuple[int, int], dict[int, CycScalar]] = {}
    for a, i in enumerate(keep):
        for b, j in enumerate(keep):
            entry = algebra.basis_product(i, j)
            if not entry:
                continue
            for k in entry:
                if k not in position:
                    raise ValueError("invariant basis is not closed under the product")
            structure[(a, b)] = {position[k]: c for k, c in entry.items()}
    return OrbifoldAlgebra(algebra.ip, algebra.group, algebra.sectors,
                           [algebra.basis[i] for i in keep], structure,
                           invariant_only=True)


@lru_cache(maxsize=None)
def orbifold_algebra(ip: InvertiblePoly, group: SymmetryGroup) -> OrbifoldAlgebra:
    """Jac(f,G): the G-invariant subalgebra of the twisted algebra, cached."""
    return invariant_subalgebra(twisted_algebra(ip, group))
