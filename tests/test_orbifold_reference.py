"""`orbifold_algebra` against the full twisted algebra Jac'(f,G) restricted by hand.

The reference below builds Jac'(f,G) in full: every product of two basis
elements of the twisted algebra, read from the target sector's normal-form
table once per distinct (g, h, ambient exponent), with its Gram matrix,
weighted degrees and parities.  Its G-invariant restriction re-indexes the
invariant basis and rejects a product that leaves it.  Jac(f,G) must equal
that restriction in basis, structure, Gram matrix, degrees and parities on
every distinct (polynomial, group) pair of the bundled catalog: the row
targets, the row sources with the trivial group, and the graph nodes.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

import pytest

from oja.catalog import load_catalog, row_source, row_target
from oja.jacobian import trace_functional
from oja.orbifold import build_sectors, compute_H, fix_union_holds, orbifold_algebra
from oja.poly import Poly
from oja.scalar import CycScalar
from oja.symmetry import GroupElement, SymmetryGroup
from test_linalg import sparse

_ZERO = CycScalar.zero()
_ONE = CycScalar.one()


def _prefactor(arity: int, g: GroupElement) -> CycScalar:
    """(-1)^((N-N_g)(N-N_g-1)/2) · e[-age(g)/2]."""
    moved = arity - len(g.fixed_indices())
    sign = _ONE if (moved * (moved - 1) // 2) % 2 == 0 else -_ONE
    twelfths = 12 * g.age()  # e[-age/2] = zeta_24^(-12 age)
    assert twelfths.denominator == 1
    return sign * CycScalar.zeta(-int(twelfths))


class FullTwisted:
    """Jac'(f,G) with its whole structure tensor, Gram matrix, degrees and parities."""

    def __init__(self, ip, group, sectors, basis, structure):
        self.ip, self.group, self.sectors = ip, group, sectors
        self.basis = tuple(basis)
        self.structure = structure
        identity = GroupElement.identity(ip.arity)
        self.identity_index = self.basis.index((identity, (0,) * ip.arity))
        id_algebra = sectors[identity].algebra
        socle = self.basis.index((identity, id_algebra.socle))
        trace = trace_functional(id_algebra, group.order * id_algebra.mu)
        socle_value = trace(Poly.monomial(id_algebra.vars, id_algebra.socle))
        self.gram = [[self.basis_product(i, j).get(socle, _ZERO) * socle_value
                      for j in range(self.dim)] for i in range(self.dim)]
        q = [Fraction(w, ip.degree) for w in ip.weights]
        self.degrees = tuple(
            sum((q[i] * e for i, e in zip(sectors[g].fixed, m)), Fraction(0))
            + sum((Fraction(1, 2) - q[i] for i in range(ip.arity) if i not in sectors[g].fixed),
                  Fraction(0))
            for g, m in self.basis)
        self.parities = tuple(sectors[g].parity for g, _ in self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_product(self, i: int, j: int) -> dict[int, CycScalar]:
        return self.structure.get((i, j), {})


def full_twisted(ip, group) -> FullTwisted:
    """Every product [x^a]v_g · [x^b]v_h of the twisted algebra.

    It is prefactor(g) · [x^(a+b) H_{g,h}] v_{gh} when the fixed loci of g, h
    and gh cover every coordinate, and zero otherwise.
    """
    sectors = build_sectors(ip, group)
    n = ip.arity
    basis = []
    spans = {}
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
            start = spans[g * h].start
            moved = [k for k in range(n) if k not in target.fixed]
            correction = [(e, pre * c)
                          for e, c in compute_H(ip, group, g, h, sectors).terms.items()]
            reduced: dict[tuple[int, ...], dict[int, CycScalar]] = {}
            for i in spans[g]:
                for j in spans[h]:
                    ambient = tuple(map(add, lifted[i], lifted[j]))
                    entry = reduced.get(ambient)
                    if entry is None:
                        coords: dict[int, CycScalar] = {}
                        if not any(ambient[k] for k in moved):
                            for exps, c in correction:
                                local = tuple(ambient[k] + e for k, e in zip(target.fixed, exps))
                                target.algebra.add_term(coords, c, local)
                        entry = reduced[ambient] = {start + k: s for k, s in coords.items()}
                    if entry:
                        structure[(i, j)] = entry
    return FullTwisted(ip, group, sectors, basis, structure)


def invariant_restriction(T: FullTwisted) -> dict:
    """Basis, structure, Gram, degrees and parities of the G-invariant part of T."""
    keep = [i for i, (g, m) in enumerate(T.basis)
            if all(q.fixes_monomial(T.sectors[g].lift(m, T.ip.arity)) for q in T.group)]
    position = {old: new for new, old in enumerate(keep)}
    structure = {}
    for a, i in enumerate(keep):
        for b, j in enumerate(keep):
            entry = T.basis_product(i, j)
            if not entry:
                continue
            if not all(k in position for k in entry):
                raise ValueError("invariant basis is not closed under the product")
            structure[(a, b)] = {position[k]: c for k, c in entry.items()}
    return {
        "basis": tuple(T.basis[i] for i in keep),
        "structure": structure,
        "gram": [[T.gram[i][j] for j in keep] for i in keep],
        "degrees": tuple(T.degrees[i] for i in keep),
        "parities": tuple(T.parities[i] for i in keep),
    }


def _catalog_pairs():
    catalog = load_catalog()
    named = {}
    for row in catalog.rows:
        named.setdefault(row_target(row), f"row{row.index}")
        source = row_source(row)
        named.setdefault((source, SymmetryGroup.trivial(source.arity)), f"source{row.index}")
    for node in catalog.graph_nodes:
        named.setdefault((node.ip, node.group), f"node-{node.label}")
    return [pytest.param(ip, group, id=name) for (ip, group), name in named.items()]


_PAIRS = _catalog_pairs()


def test_the_catalog_has_28_distinct_pairs():
    assert len(_PAIRS) == 28


@pytest.mark.parametrize("ip,group", _PAIRS)
def test_orbifold_algebra_is_the_invariant_restriction_of_the_full_twisted_algebra(ip, group):
    A = orbifold_algebra(ip, group)
    expected = invariant_restriction(full_twisted(ip, group))
    assert A.basis == expected["basis"]
    assert A.structure == expected["structure"]
    assert A.gram == sparse(expected["gram"])
    assert A.degrees == expected["degrees"]
    assert A.parities == expected["parities"]


def test_restriction_rejects_a_product_outside_the_invariant_basis():
    ip, group = row_target(load_catalog().row(2))  # 16 twisted, 10 invariant
    T = full_twisted(ip, group)
    dropped = next(i for i, (g, m) in enumerate(T.basis)
                   if not all(q.fixes_monomial(T.sectors[g].lift(m, ip.arity)) for q in group))
    T.structure[(T.identity_index, T.identity_index)] = {dropped: _ONE}
    with pytest.raises(ValueError, match="not closed"):
        invariant_restriction(T)
