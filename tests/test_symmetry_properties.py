"""Property tests for `GroupElement`: its integer numerators agree with the
`Fraction` formulas on phase vectors taken mod 1, and `SymmetryGroup` lists
elements in the order of their phases."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oja.symmetry import GroupElement, SymmetryGroup  # noqa: E402

# Unreduced numerator/denominator pairs such as 2/4, 3/2 and -1/2; each is
# given to `GroupElement` as a `Fraction` and, through `parse`, as text.
pairs = st.tuples(st.integers(-12, 12), st.integers(1, 12))
vectors = st.integers(1, 3).flatmap(lambda n: st.lists(pairs, min_size=n, max_size=n))


def _reference(vector) -> tuple[Fraction, ...]:
    return tuple(Fraction(a, b) % 1 for a, b in vector)


def _element(vector, via_text: bool) -> GroupElement:
    if via_text:
        return GroupElement.parse(",".join(f"{a}/{b}" for a, b in vector))
    return GroupElement(tuple(Fraction(a, b) for a, b in vector))


def _agrees(g: GroupElement, phases: tuple[Fraction, ...]) -> None:
    assert g.phases == phases
    assert all(type(p) is Fraction for p in g.phases)
    assert g.arity == len(phases)
    assert g.order() == math.lcm(*(p.denominator for p in phases))
    assert g.age() == sum(phases, Fraction(0))
    assert g.fixed_indices() == tuple(i for i, p in enumerate(phases) if p == 0)
    assert g.is_identity() == all(p == 0 for p in phases)
    assert str(g) == ",".join(str(p) for p in phases)
    assert repr(g) == f"GroupElement(phases={phases!r})"
    assert g.fixes_monomial((1,) * len(phases)) == (sum(phases, Fraction(0)).denominator == 1)


@settings(max_examples=150, deadline=None)
@given(vectors, vectors, st.integers(-7, 7), st.booleans())
def test_group_elements_agree_with_the_fraction_formulas(u, v, n, via_text):
    v = (v * 3)[:len(u)]  # same arity as u
    p, q = _reference(u), _reference(v)
    g, h = _element(u, via_text), _element(v, not via_text)
    _agrees(g, p)
    _agrees(h, q)
    _agrees(g.compose(h), tuple((a + b) % 1 for a, b in zip(p, q)))
    _agrees(g * h, tuple((a + b) % 1 for a, b in zip(p, q)))
    _agrees(g.inverse(), tuple(-a % 1 for a in p))
    _agrees(g ** n, tuple(n * a % 1 for a in p))
    assert (g == h) == (p == q)
    if g == h:
        assert hash(g) == hash(h)
    assert g == GroupElement(p) and hash(g) == hash(GroupElement(p))


# Denominators dividing 12 keep the groups at most 144 elements large.
small_pairs = st.tuples(st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 12]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_pairs, min_size=2, max_size=2), min_size=1, max_size=3))
def test_groups_list_their_elements_by_phases(generators):
    elements = {GroupElement.identity(2)}
    frontier = list(elements)
    gens = [_element(u, False) for u in generators]
    while frontier:  # the closure, on Fraction phase vectors
        fresh = {GroupElement(tuple((a + b) % 1 for a, b in zip(e.phases, g.phases)))
                 for e in frontier for g in gens} - elements
        elements |= fresh
        frontier = list(fresh)
    group = SymmetryGroup.generated_by(gens, 2)
    assert [g.phases for g in group] == sorted(g.phases for g in elements)
    assert SymmetryGroup(reversed(group.elements)) == group
