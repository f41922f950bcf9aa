"""The catalog is complete, checked by an enumerator of its own.

Every invertible polynomial is a sum of Fermat (x_i^a), chain (x_i^a·x_j)
and loop atoms (Kreuzer–Skarke, *On the classification of quasihomogeneous
functions*, Comm. Math. Phys. 150, 1992).  In three variables with unit
coefficients it is x_1^{a_1}x_{t(1)} + x_2^{a_2}x_{t(2)} + x_3^{a_3}x_{t(3)},
where i ↦ t(i) is a map to {none} ∪ {j ≠ i} that is injective on the j's,
and the weights q_i of a type force a_i = (1 − q_{t(i)})/q_i (q_none = 0).
Solving that for each type's weights lists its variants; the strange-duality
instances (f1, f2) pair each variant f1 of a type X with each variant f2 of
X's dual and claim Jac(f1) ≅ Jac'(f2ᵀ, G_{f2ᵀ} ∩ SL).  The catalog must list
exactly those variants, and as rows exactly the instances that are not an
identity (trivial group, f2ᵀ = f1 up to renaming), in row order.

From `oja.catalog` only `load_catalog` is used; every polynomial is written
out as text here and read through `parse_invertible`, which refuses a text
without an isolated singularity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from oja.catalog import load_catalog
from oja.symmetry import (GroupElement, SymmetryGroup, max_symmetry_group, parse_invertible,
                          sl_subgroup)

ARITY = 3
Rows = tuple[tuple[int, ...], ...]


def _key(rows: Rows) -> Rows:
    """Exponent rows up to the order of the monomials and renaming variables."""
    return min(tuple(sorted(tuple(row[s] for s in sigma) for row in rows))
               for sigma in permutations(range(ARITY)))


def _transposed(rows: Rows) -> Rows:
    return tuple(zip(*rows))


def _text(rows: Rows) -> str:
    def power(i: int, e: int) -> str:
        return f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"

    return "+".join("*".join(power(i, e) for i, e in enumerate(row) if e) for row in rows)


def _atom_sums(q: tuple[Fraction, ...]) -> list[Rows]:
    """The exponent rows of every atom sum on the weights q."""
    found = []
    choices = [[None, *(j for j in range(ARITY) if j != i)] for i in range(ARITY)]
    for t in product(*choices):
        pointed = [j for j in t if j is not None]
        if len(set(pointed)) != len(pointed):
            continue
        a = [(1 - (q[j] if j is not None else 0)) / q[i] for i, j in enumerate(t)]
        if any(x.denominator != 1 or x < 1 for x in a):
            continue
        found.append(tuple(tuple(int(a[i]) if k == i else int(k == j) for k in range(ARITY))
                           for i, j in enumerate(t)))
    return found


@lru_cache(maxsize=None)
def _enumerated_variants() -> dict[str, set[Rows]]:
    """Per type: the renaming keys of the atom sums with an isolated singularity."""
    out = {}
    for entry in load_catalog().entries:
        first = parse_invertible(entry.variants[0])
        q = tuple(Fraction(w, first.degree) for w in first.weights)
        keys = set()
        for rows in _atom_sums(q):
            try:
                ip = parse_invertible(_text(rows))
            except ValueError:  # not an isolated singularity
                continue
            keys.add(_key(ip.exponents))
        out[entry.type_name] = keys
    return out


def _sl(text: str) -> SymmetryGroup:
    return sl_subgroup(max_symmetry_group(parse_invertible(text)))


def _instances() -> list[tuple[str, str, str, str, bool]]:
    """(type of f1, f1, type of f2, f2ᵀ as text, identity?) for every instance,
    by the name of f1's type, then f1's position among its variants, then f2's."""
    catalog = load_catalog()
    out = []
    for entry in sorted(catalog.entries, key=lambda e: e.type_name):
        dual = catalog.entry(entry.strange_dual)
        for f1 in entry.variants:
            for f2 in dual.variants:
                target = _text(_transposed(parse_invertible(f2).exponents))
                identity = (_sl(target).order == 1 and _key(parse_invertible(target).exponents)
                            == _key(parse_invertible(f1).exponents))
                out.append((entry.type_name, f1, dual.type_name, target, identity))
    return out


def test_the_variants_are_every_invertible_polynomial_of_each_type():
    enumerated = _enumerated_variants()
    for entry in load_catalog().entries:
        listed = [_key(parse_invertible(v).exponents) for v in entry.variants]
        assert len(set(listed)) == len(listed), entry.type_name
        assert set(listed) == enumerated[entry.type_name], entry.type_name
    counts = {name: len(keys) for name, keys in enumerated.items() if len(keys) > 1}
    assert counts == {"E14": 2, "Z13": 2, "W12": 2, "W13": 2, "Q12": 2, "U12": 3}
    assert sum(map(len, enumerated.values())) == 21


def test_the_rows_are_every_instance_that_is_not_an_identity():
    instances = _instances()
    assert len(instances) == 34
    identities = [x for x in instances if x[4]]
    assert len(identities) == 14
    rowless = {"E12", "E13", "Z11", "Z12", "S12"}
    assert {x[0] for x in identities} >= rowless
    assert all(x[4] for x in instances if x[0] in rowless)

    rows = load_catalog().rows
    claims = [x for x in instances if not x[4]]
    assert [row.index for row in rows] == list(range(1, len(claims) + 1)) == list(range(1, 21))
    for row, (f1_type, f1, f2_type, target, _) in zip(rows, claims):
        assert (row.f1_type, row.f2_type) == (f1_type, f2_type), row.index
        assert parse_invertible(row.f1).poly == parse_invertible(f1).poly, row.index
        row_target = parse_invertible(row.f2_transpose)
        assert _key(row_target.exponents) == _key(parse_invertible(target).exponents), row.index
        generators = [GroupElement.parse(row.generator)] if row.generator else []
        group = SymmetryGroup(generators, ARITY)
        assert group == _sl(row.f2_transpose), row.index  # all of G_{f2ᵀ} ∩ SL


def test_each_trivial_group_row_compares_two_variants_of_its_source_type():
    enumerated = _enumerated_variants()
    trivial = [row for row in load_catalog().rows if _sl(row.f2_transpose).order == 1]
    assert [row.index for row in trivial] == [1, 5, 10, 13, 17, 19, 20]
    for row in trivial:
        source, target = (_key(parse_invertible(t).exponents) for t in (row.f1, row.f2_transpose))
        assert target in enumerated[row.f1_type] and target != source, row.index
