"""`groebner` against the pair-set Buchberger it replaced.

The reference below is the earlier implementation: pending pairs in a set,
the lcm and grevlex key recomputed for every pair at every selection, and
S-polynomials formed as `Poly` products.  A reduced Groebner basis is unique,
so both must return equal `GroebnerBasis` objects on every Jacobian ideal oja
builds: all small invertible exponent matrices, every catalog variant and
its transpose, and every sector restriction f^g of the catalog's orbifold
algebras.
"""

from __future__ import annotations

import pytest

from oja.catalog import load_catalog, row_target
from oja.jacobian import GroebnerBasis, _reduce_poly, groebner, leading_monomial
from oja.poly import Poly, grevlex_key, parse
from oja.scalar import CycScalar
from oja.symmetry import build_invertible, transpose
from test_jacobian import _invertible_exponent_matrices, _spoly


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _monic(p: Poly) -> Poly:
    return p.scale(p.terms[leading_monomial(p)].inverse())


def _pair_set_groebner(gens: list[Poly]) -> GroebnerBasis:
    basis = [_monic(g) for g in gens if not g.is_zero()]
    lms = [leading_monomial(g) for g in basis]
    pending = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pending:
        i, j = min(pending, key=lambda pair: grevlex_key(_lcm(lms[pair[0]], lms[pair[1]])))
        pending.discard((i, j))
        lcm = _lcm(lms[i], lms[j])
        if lcm == tuple(a + b for a, b in zip(lms[i], lms[j])):
            continue
        if any(k != i and k != j and _divides(lms[k], lcm)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k in range(len(basis))):
            continue
        remainder = _reduce_poly(_spoly(basis[i], basis[j]), list(zip(lms, basis)))
        if remainder.is_zero():
            continue
        basis.append(_monic(remainder))
        lms.append(leading_monomial(basis[-1]))
        pending.update((k, len(basis) - 1) for k in range(len(basis) - 1))

    basis.sort(key=lambda g: grevlex_key(leading_monomial(g)))
    minimal: list[Poly] = []
    for g in basis:
        if not any(_divides(leading_monomial(h), leading_monomial(g)) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = [(leading_monomial(h), h) for k, h in enumerate(minimal) if k != idx]
        reduced.append(_monic(_reduce_poly(g, others)))
    return GroebnerBasis(tuple(reduced))


def _partials(f: Poly) -> list[Poly]:
    return [f.partial_derivative(i) for i in range(len(f.vars))]


def _assert_same_basis(f: Poly) -> None:
    partials = _partials(f)
    assert groebner(partials) == _pair_set_groebner(partials), str(f)


def test_small_invertible_exponent_matrices():
    one = CycScalar.one()
    matrices = list(_invertible_exponent_matrices())
    assert len(matrices) == 272
    for rows in matrices:
        _assert_same_basis(Poly(("x1", "x2", "x3"), {r: one for r in rows}))


def test_catalog_variants_and_their_transposes():
    texts = [v for entry in load_catalog().entries for v in entry.variants]
    assert len(texts) == 21
    for text in texts:
        ip = build_invertible(parse(text, ("x1", "x2", "x3")))
        for candidate in (ip, transpose(ip)):
            _assert_same_basis(candidate.poly)


def _sector_restrictions() -> list[Poly]:
    catalog = load_catalog()
    pairs = [row_target(row) for row in catalog.rows]
    pairs += [(node.ip, node.group) for node in catalog.graph_nodes]
    found: dict[Poly, None] = {}
    for ip, group in pairs:
        for g in group:
            f_g = ip.poly.restrict(g.fixed_indices())
            if f_g.vars:
                found[f_g] = None
    return list(found)


@pytest.mark.parametrize("f", _sector_restrictions(), ids=str)
def test_sector_restrictions_of_the_catalog_algebras(f):
    _assert_same_basis(f)
