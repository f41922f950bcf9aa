"""Graded dimensions of Jac(f,G) from characters alone.

For a sector g, Jac(f^g) is the quotient by the regular sequence ∂_i f^g,
i ∈ Fix g, and x_i spans the character χ_i of G while ∂_i f^g, of degree
1 − q_i, spans χ_i⁻¹ (f is G-invariant).  The Koszul complex gives its
G-graded Poincaré series

    Π_{i∈Fix g} (1 − χ_i⁻¹ t^{1−q_i}) / (1 − χ_i t^{q_i})   in ℤ[Ĝ][t].

The part with trivial character, shifted by the age term
Σ_{i∉Fix g} (1/2 − q_i), lists the degrees of the invariant classes
[x^m]v_g, so over all sectors it must be `OrbifoldAlgebra.degrees` as a
multiset.  The expansion is integer arithmetic on the weights, with no
Gröbner basis and no sector code: degrees are counted in units of 1/d and a
character is its vector of phase numerators on the group's generators.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from oja.catalog import load_catalog, row_source, row_target
from oja.orbifold import orbifold_algebra
from oja.symmetry import SymmetryGroup


def _character(group: SymmetryGroup, i: int) -> tuple[int, ...]:
    """χ_i, by the scaled phase of x_i under each generator."""
    return tuple(h.num[i] for h in group.generators)


def _series(weights, d, fixed, chars, moduli) -> Counter:
    """{(degree in units of 1/d, character): coefficient} of the sector's
    series, exact up to its top degree Σ_{i∈Fix g} (d − 2w_i), which is the
    whole of it since Jac(f^g) is finite."""
    top = sum(d - 2 * weights[i] for i in fixed)

    def times(c, chi, k):
        return tuple((a + k * b) % n for a, b, n in zip(c, chi, moduli))

    series = Counter({(0, (0,) * len(moduli)): 1})
    for i in fixed:
        w, chi = weights[i], chars[i]
        numerator = Counter()
        for (e, c), n in series.items():
            numerator[e, c] += n
            if e + d - w <= top:
                numerator[e + d - w, times(c, chi, -1)] -= n
        series = Counter()
        for (e, c), n in numerator.items():
            for k in range((top - e) // w + 1):  # 1/(1 − χ t^w) = Σ_k χ^k t^{kw}
                series[e + k * w, times(c, chi, k)] += n
    assert all(n >= 0 for n in series.values())
    return +series


def _oracle_degrees(ip, group: SymmetryGroup) -> Counter:
    weights, d, n = ip.weights, ip.degree, ip.arity
    moduli = tuple(h.den for h in group.generators)
    chars = [_character(group, i) for i in range(n)]
    trivial = (0,) * len(moduli)
    degrees = Counter()
    for g in group:
        fixed = [i for i in range(n) if g.num[i] == 0]
        age_shift = sum(d - 2 * weights[i] for i in range(n) if i not in fixed)
        for (e, c), count in _series(weights, d, fixed, chars, moduli).items():
            if c == trivial:
                degrees[Fraction(2 * e + age_shift, 2 * d)] += count
    return degrees


def _pairs() -> list:
    """The distinct (polynomial, group) pairs of the row sources, row targets
    and graph nodes."""
    catalog = load_catalog()
    pairs = []
    for row in catalog.rows:
        source = row_source(row)
        pairs += [(source, SymmetryGroup.trivial(source.arity)), row_target(row)]
    pairs += [(node.ip, node.group) for node in catalog.graph_nodes]
    return list(dict.fromkeys(pairs))


def test_degrees_match_the_character_series():
    pairs = _pairs()
    assert len(pairs) == 28
    for ip, group in pairs:
        algebra = orbifold_algebra(ip, group)
        assert _oracle_degrees(ip, group) == Counter(algebra.degrees), (str(ip.poly), group)


def test_the_series_is_the_milnor_number_summed_over_characters():
    """Summed over characters, the identity sector's series has μ = Π (d − w_i)/w_i
    terms (Milnor–Orlik), a check on the expansion itself."""
    for ip, group in _pairs():
        moduli = tuple(h.den for h in group.generators)
        chars = [_character(group, i) for i in range(ip.arity)]
        series = _series(ip.weights, ip.degree, range(ip.arity), chars, moduli)
        mu = Fraction(1)
        for w in ip.weights:
            mu *= Fraction(ip.degree - w, w)
        assert sum(series.values()) == mu, str(ip.poly)
