"""Every in-scope (f, G) of small exponents, not just the catalog's 28 pairs.

f runs over the invertible polynomials in two and three variables that are
sums of Kreuzer–Skarke atoms (Comm. Math. Phys. 150, 1992), one atom per
block of a set partition of the variables, each block in every order:
Fermat x^a (a ≥ 2), chain x_1^{a_1}x_2 + … + x_k^{a_k} (a_i ≥ 1, a_k ≥ 2)
and loop x_1^{a_1}x_2 + … + x_k^{a_k}x_1 (a_i ≥ 2), every exponent at most
3.  G runs over the trivial group and the cyclic subgroups of order 2 and 3
of SL ∩ G_f.  Each of the 389 pairs must either be refused by
`oja orbifold` with exit 2 and one line, or give a unital,
graded-commutative, associative algebra whose degrees are the character
series' (`test_character_degrees._oracle_degrees`).  The products are
checked on every basis triple, with arithmetic of this module's own.  The
refusals are pinned line by line in `golden/wide_sweep_refusals.txt`, as
`f | generator | error: …` in the sweep's order.
"""

from __future__ import annotations

import contextlib
import io
from collections import Counter
from functools import cache
from itertools import product
from pathlib import Path

from oja.cli import main
from oja.orbifold import OrbifoldAlgebra, orbifold_algebra
from oja.scalar import CycScalar
from oja.symmetry import SymmetryGroup, max_symmetry_group, parse_invertible, sl_subgroup
from test_character_degrees import _oracle_degrees

BOUND = 3
REFUSALS = Path(__file__).parent / "golden" / "wide_sweep_refusals.txt"
_ZERO, _ONE = CycScalar.zero(), CycScalar.one()


def _ordered_blocks(names: list[str]):
    """Every set partition of `names`, each block in every order."""
    if not names:
        yield []
        return
    first, rest = names[0], names[1:]
    for blocks in _ordered_blocks(rest):
        yield [[first], *blocks]
        for b, block in enumerate(blocks):
            for at in range(len(block) + 1):
                yield [*blocks[:b], [*block[:at], first, *block[at:]], *blocks[b + 1:]]


def _atoms(block: list[str]) -> list[list[str]]:
    """The monomials of each Fermat, chain or loop atom on `block`, in its order."""
    k, exps = len(block), range(1, BOUND + 1)
    if k == 1:
        return [[f"{block[0]}^{a}"] for a in exps[1:]]
    chains = [[*(f"{x}^{a}*{y}" for x, y, a in zip(block, block[1:], e)), f"{block[-1]}^{e[-1]}"]
              for e in product(*[exps] * (k - 1), exps[1:])]
    loops = [[f"{x}^{a}*{y}" for x, y, a in zip(block, block[1:] + block[:1], e)]
             for e in product(*[exps[1:]] * k)]
    return chains + loops


def _group_text(group: SymmetryGroup) -> str:
    return str(group.generators[0] if group.generators else group.elements[0])


def _pairs() -> list[tuple[str, object, SymmetryGroup]]:
    """(text, f, G) for each distinct invertible f and each G in scope."""
    polys = {}
    for n in (2, 3):
        for blocks in _ordered_blocks([f"x{i}" for i in range(1, n + 1)]):
            for atoms in product(*map(_atoms, blocks)):
                text = "+".join(m for atom in atoms for m in atom)
                try:
                    ip = parse_invertible(text)
                except ValueError:
                    continue  # degenerate or not invertible
                polys.setdefault(ip.poly, (text, ip))
    pairs = []
    for text, ip in polys.values():
        groups = [SymmetryGroup.trivial(ip.arity)]
        for g in sl_subgroup(max_symmetry_group(ip)):
            if g.order() in (2, 3) and SymmetryGroup([g], ip.arity) not in groups:
                groups.append(SymmetryGroup([g], ip.arity))
        pairs += [(text, ip, group) for group in groups]
    return pairs


def _combine(terms) -> dict[int, CycScalar]:
    """Σ c·row over (c, row) pairs, zeros dropped."""
    out: dict[int, CycScalar] = {}
    for c, row in terms:
        for k, s in row.items():
            out[k] = out.get(k, _ZERO) + c * s
    return {k: c for k, c in out.items() if c}


def _assert_unital_graded_commutative_associative(A: OrbifoldAlgebra) -> None:
    n = range(A.dim)
    mul = [[A.structure.get((i, j), {}) for j in n] for i in n]
    one = A.identity_index
    for i in n:
        assert mul[one][i] == {i: _ONE} == mul[i][one], A.label(i)
        for j in n:
            swapped = mul[j][i]
            if A.parities[i] * A.parities[j]:
                swapped = {k: -c for k, c in swapped.items()}
            assert mul[i][j] == swapped, (A.label(i), A.label(j))
            for k in n:
                assert _combine((c, mul[m][k]) for m, c in mul[i][j].items()) \
                    == _combine((c, mul[i][m]) for m, c in mul[j][k].items()), (i, j, k)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _kind(message: str) -> str:
    for key, kind in (("differs from", "not associative"), ("uniquely", "H not unique"),
                      ("two-sided unit", "no unit")):
        if key in message:
            return kind
    return message


@cache
def _sweep() -> tuple[Counter, tuple[str, ...]]:
    """The outcome counts and the refusal lines of the whole sweep, checked as it runs."""
    pairs = _pairs()
    assert len(pairs) == 389
    outcomes, refusals = Counter(), []
    for text, ip, group in pairs:
        try:
            A = orbifold_algebra(ip, group)
        except ValueError:
            code, out, err = _run(["orbifold", text, "--group", _group_text(group)])
            assert (code, out) == (2, ""), (text, str(group))
            assert err.startswith("error: ") and err.count("\n") == 1, err
            outcomes[_kind(err)] += 1
            refusals.append(f"{text} | {_group_text(group)} | {err}")
            continue
        _assert_unital_graded_commutative_associative(A)
        assert _oracle_degrees(ip, group) == Counter(A.degrees), (text, str(group))
        outcomes["algebra"] += 1
    return outcomes, tuple(refusals)


def test_every_pair_is_refused_in_one_line_or_gives_a_checked_algebra():
    outcomes, _ = _sweep()
    assert outcomes == {"algebra": 339, "not associative": 26, "no unit": 18, "H not unique": 6}


def test_every_refusal_matches_its_golden_line():
    _, refusals = _sweep()
    assert "".join(refusals) == REFUSALS.read_text(encoding="utf-8")


def test_a_product_that_is_not_associative_exits_2():
    """v_g·v_g = 0 (Fix g ∪ Fix g ∪ Fix g² is empty) but v_g·v_{g²} = −v_id,
    which no associative product allows."""
    code, out, err = _run(["orbifold", "x1*x2+x2^3", "--group", "1/3,2/3", "--structure"])
    assert (code, out) == (2, "")
    assert err == ("error: ([1] v_(1/3,2/3) * [1] v_(1/3,2/3)) * [1] v_(2/3,1/3) differs from "
                   "[1] v_(1/3,2/3) * ([1] v_(1/3,2/3) * [1] v_(2/3,1/3)); "
                   "the product formula does not apply\n")
