"""Frobenius-algebra isomorphisms between Jacobian algebras and their orbifolds.

A witness maps the ambient variables of a source polynomial f₁ into a target
orbifold algebra.  `verify_algebra_iso` checks that the Jacobian relations die,
that the images generate, and that dimensions agree; `verify_frobenius_iso`
additionally checks the trace pairing, through the counit.  `search_iso`
hunts for such witnesses with a degree-graded ansatz whose scalar unknowns are
solved exactly over ℚ(ζ₂₄), and `duality_graph` assembles the verified
isomorphisms into a graph of (polynomial, group) pairs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from math import gcd
from typing import Iterator, Mapping, NamedTuple, Sequence

from .jacobian import Fingerprint, fingerprint
from .linalg import accumulate, rank
from .orbifold import OrbifoldAlgebra, orbifold_algebra
from .poly import Poly
from .scalar import (CycScalar, HALF_I, I_UNIT, SQRT2, SQRT3, kth_roots,
                     square_roots)
from .symmetry import InvertiblePoly, SymmetryGroup

_ZERO = CycScalar.zero()
_ONE = CycScalar.one()


class SearchFailure(ValueError):
    """Raised when the ansatz search space is exhausted without a witness."""


# --- witnesses and reports ---------------------------------------------------


class IsoWitness:
    """A candidate isomorphism Jac(f₁) → target, one image per variable.

    Each image is a sparse coordinate dict of the target with no zero stored,
    so equal witnesses have equal images.
    """

    def __init__(self, source: InvertiblePoly, target: OrbifoldAlgebra,
                 images: tuple[dict[int, CycScalar], ...]):
        self.source, self.target, self.images = source, target, images

    def __eq__(self, other: object) -> bool:
        return type(other) is IsoWitness and (self.source, self.target, self.images) == (
            other.source, other.target, other.images)

    def __hash__(self) -> int:
        return hash((self.source, self.target))

    def __repr__(self) -> str:
        return f"IsoWitness(source={self.source!r}, target={self.target!r}, images={self.images!r})"

    def image_str(self, i: int) -> str:
        return self.target.vector_str(self.images[i])

    table = cached_property(lambda self: _ImageTable(self.target, self.images))

    @cached_property
    def relation_images(self) -> tuple[tuple[Poly, dict[int, CycScalar]], ...]:
        """Each generator ∂f₁/∂xᵢ of the Jacobian ideal with its image."""
        return tuple((p, evaluate_in_target(self.table, p))
                     for p in map(self.source.poly.partial_derivative, range(self.source.arity)))

    image_matrix = cached_property(  # images of the source basis, as rows
        lambda self: tuple(self.table[m] for _, m in source_algebra(self.source).basis))

    # One verification per witness: the search, `certify` and `verify_witness`
    # all read these.
    algebra_report = cached_property(lambda self: verify_algebra_iso(self))
    frobenius_report = cached_property(lambda self: verify_frobenius_iso(self))

    def to_json(self) -> dict:
        return {
            "source": {
                "polynomial": str(self.source.poly),
                "variables": list(self.source.vars),
            },
            "target": {
                "polynomial": str(self.target.ip.poly),
                "group": [str(g) for g in self.target.group],
            },
            "images": [
                [[self.target.label(k), c.to_json()] for k, c in sorted(img.items())]
                for img in self.images
            ],
        }

    def __str__(self) -> str:
        parts = [f"{v} -> {self.image_str(i)}" for i, v in enumerate(self.source.vars)]
        return "; ".join(parts)


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class Report(NamedTuple):
    passed: bool
    checks: tuple[Check, ...]

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}

    def failure(self) -> str:
        return "; ".join(f"{c.name}: {c.detail}" for c in self.checks if not c.passed)


def source_algebra(ip: InvertiblePoly) -> OrbifoldAlgebra:
    """Jac(f₁) presented as the trivial-group orbifold algebra.

    This carries the same basis/product data as the plain quotient algebra and
    the trace pairing normalized with |G| = 1.
    """
    return orbifold_algebra(ip, SymmetryGroup.trivial(ip.arity))


class _ImageTable(dict):
    """x^m ↦ φ(x^m) inside the target, memoized, for the variable images of φ.

    φ(x^m) is φ(x^m/x_k)∘φ(x_k) with x_k the last variable of x^m: one product
    per monomial beyond its divisors, factors in variable order, and no
    product for 1 or a single variable.  The coordinates lie in any ring
    holding the structure constants, with the given one.
    """

    def __init__(self, target: OrbifoldAlgebra, images: Sequence[Mapping], one=_ONE):
        n = len(images)
        super().__init__({(0,) * k + (1,) + (0,) * (n - 1 - k): image
                          for k, image in enumerate(images)})
        self[(0,) * n] = target.identity_vector(one)
        self.target, self.images = target, images

    def __missing__(self, m: tuple[int, ...]) -> dict:
        k = max(i for i, e in enumerate(m) if e)
        value = self[m] = self.target.product(self[m[:k] + (m[k] - 1,) + m[k + 1:]],
                                              self.images[k])
        return value


def evaluate_in_target(table: _ImageTable, p: Poly) -> dict:
    """φ(p) inside the target, one table entry per monomial of p.

    An entry multiplies its scalar coefficient from the right (`b * coeff`),
    so the entries may be polynomials in unknowns; `accumulate` sums them.
    """
    out: dict = {}
    for exps, coeff in p.terms.items():
        for k, b in table[exps].items():
            accumulate(out, k, b * coeff)
    return out


def verify_algebra_iso(w: IsoWitness) -> Report:
    """Certify that the witness is an algebra isomorphism.

    Three checks: every Jacobian-ideal generator maps to zero; the images of
    the source standard monomials (all of weighted degree up to the socle
    degree) span the target; and the dimensions agree.
    """
    target = w.target
    src = source_algebra(w.source)
    checks = []

    bad = [f"relation {partial} maps to {target.vector_str(value)}"
           for partial, value in w.relation_images if value]
    checks.append(Check("relations", not bad, "; ".join(bad)))

    r = rank(w.image_matrix)
    checks.append(Check("surjective", r == target.dim,
                        f"images of the source basis span {r} of {target.dim} dimensions"))

    checks.append(Check("dimension", src.dim == target.dim,
                        f"source {src.dim}, target {target.dim}"))
    return Report(all(c.passed for c in checks), tuple(checks))


def _is_algebra_map(w: IsoWitness) -> bool:
    """The relations die and the images commute: φ is multiplicative on Jac(f₁)."""
    product = w.target.product
    return (not any(value for _, value in w.relation_images)
            and all(product(a, b) == product(b, a) for a, b in combinations(w.images, 2)))


def verify_frobenius_iso(w: IsoWitness) -> Report:
    """Certify pairing preservation on all basis pairs.

    For an algebra map φ, η_T(φa, φb) = ε_T(φ(ab)) and b·1 = b, so the
    pairing is kept exactly when ε_T∘φ = ε_S on the source basis (Kock,
    *Frobenius Algebras and 2D TQFTs*, 2004); the table is built otherwise.
    """
    target = w.target
    src = source_algebra(w.source)
    phi = w.image_matrix
    if _is_algebra_map(w) and all(target.trace(phi[k]) == src.trace({k: _ONE})
                                  for k in range(src.dim)):
        return Report(True, (Check("pairings", True, ""),))
    mismatches = []
    for i in range(src.dim):
        for j in range(i, src.dim):
            got = target.pairing(phi[i], phi[j])
            expected = src.gram[i].get(j, _ZERO)
            if got != expected:
                mismatches.append(
                    f"eta({src.label(i)}, {src.label(j)}): {got} != {expected}")
    passed = not mismatches
    detail = "; ".join(mismatches[:4])
    if len(mismatches) > 4:
        detail += f"; ... {len(mismatches)} pairs differ"
    return Report(passed, (Check("pairings", passed, detail),))


def verify_witness(w: IsoWitness) -> Report:
    """Both verifications combined into a single report."""
    algebra, frobenius = w.algebra_report, w.frobenius_report
    return Report(algebra.passed and frobenius.passed,
                  algebra.checks + frobenius.checks)


# --- ansatz search -----------------------------------------------------------

# Scalar guesses for unknowns no equation pins down, tried in order; roots of
# the actual relation equations are always preferred over these.
_HALF = CycScalar.from_rational(Fraction(1, 2))
_THIRD = CycScalar.from_rational(Fraction(1, 3))
_BANK = [
    _ONE, -_ONE, I_UNIT, -I_UNIT,
    _HALF, -_HALF, HALF_I, -HALF_I,
    CycScalar.from_rational(2), CycScalar.from_rational(-2),
    I_UNIT + I_UNIT, -(I_UNIT + I_UNIT),
    SQRT2 * _HALF, -(SQRT2 * _HALF),
    SQRT3 * _THIRD, -(SQRT3 * _THIRD),
    I_UNIT * SQRT3 * _THIRD, -(I_UNIT * SQRT3 * _THIRD),
    SQRT2, -SQRT2, SQRT3, -SQRT3,
    CycScalar.zeta(8), CycScalar.zeta(16),    # primitive cube roots of unity
    CycScalar.zeta(4), CycScalar.zeta(20),    # primitive sixth roots of unity
    _ZERO,
]


def _used_unknowns(eq: Poly) -> set[int]:
    return {i for exps in eq.terms for i, e in enumerate(exps) if e}


def _plug(eq: Poly, index: int, value: CycScalar) -> Poly:
    """eq with the unknown `index` set to `value`."""
    terms: dict[tuple[int, ...], CycScalar] = {}
    for exps, coeff in eq.terms.items():
        if e := exps[index]:
            coeff = coeff * value**e
            if not coeff:
                continue
            exps = exps[:index] + (0,) + exps[index + 1:]
        accumulate(terms, exps, coeff)
    return Poly._clean(eq.vars, terms)


def _plug_all(pending: list[tuple[Poly, set[int]]], index: int,
              value: CycScalar) -> list[Poly]:
    """Substitute into each pending equation; one without the unknown passes as it is."""
    return [_plug(eq, index, value) if index in used else eq for eq, used in pending]


def _univariate_profile(eq: Poly, index: int) -> dict[int, CycScalar]:
    """Map exponent-of-unknown -> coefficient for an eq in the unknown `index` only."""
    return {exps[index]: coeff for exps, coeff in eq.terms.items()}


def _univariate_roots(profile: dict[int, CycScalar]) -> list[CycScalar] | None:
    """Exact roots of Σ c_e·u^e = 0 when it is linear or quadratic in some u^g.

    u = 0 is a root when the least exponent `low` is positive.  The exponents
    less `low` have gcd g, so the rest is an equation in v = u^g; each of its
    roots v gives the g-th roots of v.  Any other shape gives None.
    """
    low = min(profile)
    zero = [_ZERO] if low else []
    g = gcd(*(e - low for e in profile))
    if not g:
        return zero  # A·u^low = 0
    c = {(e - low) // g: coeff for e, coeff in profile.items()}
    if max(c) == 1:
        values = [-(c[0] * c[1].inverse())]
    elif max(c) == 2:  # the gcd is 1, so c holds the exponents 0, 1 and 2
        disc = c[1] * c[1] - CycScalar.from_rational(4) * c[2] * c[0]
        half = CycScalar.from_rational(Fraction(1, 2)) * c[2].inverse()
        values = [(-c[1] + s) * half for s in square_roots(disc)]
    else:
        return None
    return zero + [r for v in values for r in kth_roots(v, g)]


# Solver nodes one `search_iso` call may visit before it gives up.
MAX_NODES = 60000


def _solve_system(eqs: list[Poly], n_unknowns: int,
                  max_nodes: int) -> Iterator[dict[int, CycScalar]]:
    """DFS over exact solving steps, yielding complete assignments.

    Raises `SearchFailure` on visiting node `max_nodes` + 1.
    """
    nodes = 0

    def recurse(eqs: list[Poly], assignment: dict[int, CycScalar]) -> Iterator[dict[int, CycScalar]]:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise SearchFailure(f"search stopped after {max_nodes} nodes without a witness")
        pending = []
        for eq in eqs:
            if not eq.terms:
                continue
            used = _used_unknowns(eq)
            if not used:
                return  # nonzero constant: contradiction
            pending.append((eq, used))

        if not pending and len(assignment) == n_unknowns:
            yield dict(assignment)
            return

        # Branching on the roots of a univariate equation, linear ones first:
        # their single root is a deterministic step.
        univariate = [(index, _univariate_profile(eq, index))
                      for eq, used in pending if len(used) == 1 for index in used]
        univariate.sort(key=lambda item: sorted(item[1]) not in ([1], [0, 1]))
        for index, profile in univariate:
            roots = _univariate_roots(profile)
            if roots is not None:
                for value in roots:
                    assignment[index] = value
                    rest = _plug_all(pending, index, value)
                    yield from recurse(rest, assignment)
                    del assignment[index]
                return

        # Last resort: guess from the bank.  Aim at the smallest pending
        # equation so that one guess leaves it univariate and the branch is
        # resolved or contradicted immediately; with nothing pending, guess
        # the first free unknown.
        if pending:
            counts: dict[int, int] = {}
            for _, used in pending:
                for i in used:
                    counts[i] = counts.get(i, 0) + 1
            _, focus = min(pending, key=lambda item: (len(item[1]), len(item[0].terms)))
            index = max(focus, key=lambda i: (counts[i], -i))
        else:
            index = min(i for i in range(n_unknowns) if i not in assignment)
        for value in _BANK:
            assignment[index] = value
            rest = _plug_all(pending, index, value)
            yield from recurse(rest, assignment)
            del assignment[index]

    yield from recurse(eqs, {})


def search_iso(source: InvertiblePoly, target: OrbifoldAlgebra, *,
               require_frobenius: bool = True) -> IsoWitness:
    """Search for a witness by solving the relation (and pairing) equations.

    Each source variable is mapped to an unknown-scalar combination of the
    target basis elements matching its weighted degree; the resulting exact
    polynomial system over ℚ(ζ₂₄) is solved by a depth-first cascade of
    linear eliminations, radical extractions, and a small scalar bank.  Every
    solution is re-verified before being returned.  Raises `SearchFailure`
    when the ansatz space is exhausted or `MAX_NODES` solver nodes are spent.
    """
    src = source_algebra(source)
    if src.dim != target.dim:
        raise SearchFailure(f"dimensions differ: source {src.dim}, target {target.dim}")

    # unknown -> (variable, target basis index of the variable's degree)
    degrees = [Fraction(wt, source.degree) for wt in source.weights]
    layout = [(i, k) for i, deg in enumerate(degrees)
              for k in range(target.dim) if target.degrees[k] == deg]
    ring = tuple(f"u{t}" for t in range(len(layout)))
    zero, one = Poly.zero(ring), Poly.constant(ring, _ONE)

    # The ansatz is a witness whose coordinates are polynomials in the unknowns.
    sym_images: list[dict[int, Poly]] = [{} for _ in range(source.arity)]
    for t, (i, k) in enumerate(layout):
        sym_images[i][k] = Poly.variable(ring, t)

    # A dict keyed by the equation itself drops duplicates and keeps the
    # first-seen order, which the solver's branching depends on.
    equations: dict[Poly, None] = {}

    def add_equation(eq: Poly) -> None:
        if eq.terms:
            equations.setdefault(eq)

    table = _ImageTable(target, sym_images, one)
    for i in range(source.arity):
        value = evaluate_in_target(table, source.poly.partial_derivative(i))
        for k in sorted(value):  # in basis order, as the solver branches on it
            add_equation(value[k])

    if require_frobenius:
        phi = [table[m] for _, m in src.basis]
        for i in range(src.dim):
            for j in range(i, src.dim):
                pairing, gram = target.pairing(phi[i], phi[j], zero), src.gram[i].get(j)
                add_equation(pairing - Poly.constant(ring, gram) if gram else pairing)

    for assignment in _solve_system(list(equations), len(layout), MAX_NODES):
        images: list[dict[int, CycScalar]] = [{} for _ in range(source.arity)]
        for t, (i, k) in enumerate(layout):
            if assignment[t]:  # a zero from the bank or a root is not stored
                images[i][k] = assignment[t]
        w = IsoWitness(source, target, tuple(images))
        if not w.algebra_report.passed:
            continue
        if require_frobenius and not w.frobenius_report.passed:
            continue
        return w
    raise SearchFailure("ansatz search space exhausted without a witness")


# --- row certificates --------------------------------------------------------


class RowCertificate(NamedTuple):
    """Outcome of certifying one catalog row.

    `level` is read from the witness's reports: "frobenius" when a
    pairing-preserving isomorphism was verified, "algebra" when only an
    algebra isomorphism could be established, and "failed" when a supplied
    witness did not verify, or a searched one not even as an algebra map.
    """

    level: str
    method: str
    witness: IsoWitness
    report: Report

    @property
    def full(self) -> bool:
        return self.level == "frobenius"

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "method": self.method,
            "witness": self.witness.to_json(),
            "report": self.report.to_json(),
        }


def certify(source: InvertiblePoly, target: OrbifoldAlgebra,
            witness: IsoWitness | None = None) -> RowCertificate:
    """Certify Jac(source) ≅ target, preferring a supplied witness.

    Without a witness the ansatz search runs at Frobenius level first and
    falls back to an algebra-level search, so a pair whose algebras match but
    whose pairings cannot be matched is reported as level "algebra" rather
    than as an outright failure.  Raises SearchFailure when not even an
    algebra-level witness exists in the ansatz space.
    """
    if witness is not None:
        report = verify_witness(witness)
        level = "frobenius" if report.passed else "failed"
        return RowCertificate(level, "embedded witness", witness, report)
    try:
        found = search_iso(source, target)
    except SearchFailure:
        found = search_iso(source, target, require_frobenius=False)
    else:
        report = verify_witness(found)
        if report.passed:
            return RowCertificate("frobenius", "ansatz search", found, report)
    report = found.algebra_report
    return RowCertificate("algebra" if report.passed else "failed", "ansatz search",
                          found, report)


# --- the isomorphism graph ---------------------------------------------------


class GraphNode(NamedTuple):
    """A (polynomial, group) pair drawn in one of the graph's clusters."""

    label: str
    ip: InvertiblePoly
    group: SymmetryGroup
    cluster: int


class DualityGraph:
    """Isomorphism graph over (polynomial, group) pairs, one clique per cluster."""

    def __init__(self, nodes: Sequence[GraphNode], edges: Sequence[tuple[str, str]],
                 components: Sequence[tuple[str, ...]],
                 certifications: Sequence[str],
                 fingerprints: Mapping[str, Fingerprint]):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.components = tuple(components)
        self.certifications = tuple(certifications)
        self.fingerprints = dict(fingerprints)

    def component_sizes(self) -> list[int]:
        return sorted(len(c) for c in self.components)

    def fingerprint_comparisons(self) -> list[tuple[str, str, bool]]:
        """Fingerprint equality between same-dimension components.

        One representative node per component; this is reported evidence, not
        a non-isomorphism proof.  Distinct components may report equal
        fingerprints (the node list repeats some pairs verbatim).
        """
        out = []
        for comp_a, comp_b in combinations(self.components, 2):
            a, b = comp_a[0], comp_b[0]
            fa, fb = self.fingerprints[a], self.fingerprints[b]
            if fa.dim == fb.dim:
                out.append((a, b, fa == fb))
        return out

    def to_json(self) -> dict:
        by_label = {n.label: n for n in self.nodes}
        return {
            "nodes": [{
                "label": n.label,
                "polynomial": str(n.ip.poly),
                "group": [str(g) for g in n.group],
                "cluster": n.cluster,
                "dimension": self.fingerprints[n.label].dim,
                "fingerprint": self.fingerprints[n.label].to_json(),
            } for n in self.nodes],
            "edges": [{"a": a, "b": b, "certificate": "closure of certified isomorphisms"}
                      for a, b in self.edges],
            "components": [list(c) for c in self.components],
            "component_sizes": self.component_sizes(),
            "certifications": list(self.certifications),
            "fingerprint_comparisons": [
                {"a": a, "b": b,
                 "node_a": _describe_pair(by_label[a].ip, by_label[a].group),
                 "node_b": _describe_pair(by_label[b].ip, by_label[b].group),
                 "dimension": self.fingerprints[a].dim, "equal": eq}
                for a, b, eq in self.fingerprint_comparisons()],
        }

    def to_dot(self) -> str:
        lines = ["graph duality {"]
        for n in self.nodes:
            lines.append(f'  "{n.label}" [label="{n.label}: {_describe_pair(n.ip, n.group)}"];')
        for a, b in self.edges:
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines)


def _renaming_key(ip: InvertiblePoly, group: SymmetryGroup) -> tuple:
    """The least image of (f, G) under the renamings of the variables.

    Two pairs have equal keys exactly when a renaming carries one onto the
    other, because each key is the least element of its own orbit.
    """
    terms = [(exps, (c.d, c.n)) for exps, c in ip.poly.terms.items()]
    return min((tuple(sorted((tuple(exps[i] for i in perm), c) for exps, c in terms)),
                tuple(sorted((tuple(g.num[i] for i in perm), g.den) for g in group)))
               for perm in permutations(range(ip.arity)))


def _describe_pair(ip: InvertiblePoly, group: SymmetryGroup) -> str:
    """`(f, <generators>)`, or `(f, {id})` for the trivial group."""
    gens = [str(g) for g in group if not g.is_identity()]
    label = f"<{'; '.join(gens)}>" if gens else "{id}"
    return f"({ip.poly}, {label})"


def duality_graph(catalog) -> DualityGraph:
    """Assemble the catalog's isomorphism graph and certify every drawn edge.

    The catalog supplies the node list already partitioned into clusters; the
    same (polynomial, group) pair may appear in several clusters.  Every edge
    inside a cluster must be certified mechanically, by a chain of variable
    renamings and verified catalog rows (embedded witness or ansatz search);
    rows are only verified while some in-cluster edge still lacks a
    certificate.  Edges are drawn exclusively inside clusters — two clusters
    containing equal pairs stay separate components.  Raises ValueError if
    any drawn edge cannot be certified.
    """
    from .catalog import row_source, row_target, row_witness  # local to avoid a cycle

    nodes = catalog.graph_nodes
    clusters: dict[int, list[GraphNode]] = {}
    for node in nodes:
        clusters.setdefault(node.cluster, []).append(node)

    # Pairs are interned by (polynomial, group) rather than by the
    # InvertiblePoly: a transposed polynomial keeps its own monomial row order,
    # so equal pairs can arrive as unequal InvertiblePoly objects.  Every later
    # lookup, and the union-find, runs on the interned ints.
    ids: dict[tuple[Poly, SymmetryGroup], int] = {}
    names: list[str] = []  # indexed by id
    renamings: dict[tuple, list[int]] = {}  # renaming key -> ids, in registration order
    parent: list[int] = []  # the union-find over ids; a root is its own parent
    certifications: list[str] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def register(ip: InvertiblePoly, group: SymmetryGroup, name: str) -> int:
        """Intern a pair; a new pair is linked to each known one with its renaming key."""
        key = (ip.poly, group)
        if key in ids:
            return ids[key]
        new = ids[key] = len(names)
        parent.append(new)
        renamed = renamings.setdefault(_renaming_key(ip, group), [])
        for other in renamed:
            parent[find(new)] = find(other)
            certifications.append(f"variable renaming: {name} ~ {names[other]}")
        renamed.append(new)
        names.append(name)
        return new

    key_of = {node.label: register(node.ip, node.group, node.label)
              for node in nodes}

    def needy_roots() -> set[int]:
        roots = set()
        for members in clusters.values():
            cluster_roots = {find(key_of[m.label]) for m in members}
            if len(cluster_roots) > 1:
                roots |= cluster_roots
        return roots

    pending = list(catalog.rows)
    for only_relevant_rows in (True, False):
        for row in list(pending):
            needy = needy_roots()
            if not needy:
                break
            source = row_source(row)
            target_ip, target_group = row_target(row)
            a = register(source, SymmetryGroup.trivial(source.arity),
                         _describe_pair(source, SymmetryGroup.trivial(source.arity)))
            b = register(target_ip, target_group,
                         _describe_pair(target_ip, target_group))
            if find(a) == find(b):
                pending.remove(row)
                continue
            if only_relevant_rows and find(a) not in needy and find(b) not in needy:
                continue  # cannot help a still-unlinked cluster edge; deferred
            pending.remove(row)
            target = orbifold_algebra(target_ip, target_group)
            cert = certify(source, target, row_witness(row))
            if cert.full:
                parent[find(a)] = find(b)
                certifications.append(
                    f"row {row.index}: {names[a]} ~ {names[b]} by {cert.method}")
            else:
                certifications.append(
                    f"row {row.index}: {names[a]} ~ {names[b]} not certified "
                    f"({cert.level}-level result only); not linked")

    if needy_roots():
        raise ValueError("uncertified edges remain: " + "; ".join(
            f"{a.label} -- {b.label}" for members in clusters.values()
            for a, b in combinations(members, 2)
            if find(key_of[a.label]) != find(key_of[b.label])))

    components = tuple(tuple(n.label for n in clusters[cid])
                       for cid in sorted(clusters))
    edges = [(a.label, b.label) for cid in sorted(clusters)
             for a, b in combinations(clusters[cid], 2)]

    # Nodes that share a (polynomial, group) pair share one fingerprint.
    by_key: dict[int, Fingerprint] = {}
    for node in nodes:
        key = key_of[node.label]
        if key not in by_key:
            by_key[key] = fingerprint(orbifold_algebra(node.ip, node.group))
    prints = {node.label: by_key[key_of[node.label]] for node in nodes}

    return DualityGraph(nodes, edges, components, certifications, prints)
