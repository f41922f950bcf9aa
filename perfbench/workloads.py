"""The benchmark's workloads: the oja commands of one pass and their checks.

Every expected value is written here by hand from the source paper; none is
captured from oja's output.

* Milnor numbers and algebra dimensions are the subscript of each
  exceptional unimodal type (E12 -> 12, Q10 -> 10, ...); every graph node
  has the dimension of its cluster's type.
* |G_f| = |det E_f|, computed here from the exponent matrix.
* ``verify --all``: rows 1-18 reach Frobenius level, rows 19 and 20 algebra
  level only, so the command exits 1.  That is the designed outcome and
  counts as expected, not as a failure.
* ``graph``: 23 nodes, 24 edges, every in-cluster edge certified, exit 0.

``verify`` and ``graph`` run on the fixed catalog bundled with oja; the seed
only orders the ``queries`` pass.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable

# Exceptional unimodal types and the invertible polynomial variants of each.
TYPES = {
    "E12": ("x1^7+x2^3+x3^2",),
    "E13": ("x2^3+x1^5*x2+x3^2",),
    "E14": ("x1^4*x3+x2^3+x3^2", "x1^8+x2^3+x3^2"),
    "Z11": ("x1^5+x1*x2^3+x3^2",),
    "Z12": ("x1^4*x2+x1*x2^3+x3^2",),
    "Z13": ("x1^3*x3+x1*x2^3+x3^2", "x1^6+x1*x2^3+x3^2"),
    "W12": ("x1^5+x2^2*x3+x3^2", "x1^5+x2^4+x3^2"),
    "W13": ("x1^4*x2+x2^2*x3+x3^2", "x1^4*x2+x2^4+x3^2"),
    "Q10": ("x1^4+x2^3+x1*x3^2",),
    "Q11": ("x1^3*x2+x2^3+x1*x3^2",),
    "Q12": ("x1^3*x3+x2^3+x1*x3^2", "x1^5+x2^3+x1*x3^2"),
    "S11": ("x1^4+x2^2*x3+x1*x3^2",),
    "S12": ("x1^3*x2+x2^2*x3+x1*x3^2",),
    "U12": ("x1^4+x2^3+x3^3", "x1^4+x2^3+x2*x3^2", "x1^4+x2^2*x3+x2*x3^2"),
}

# Graph nodes: label -> (polynomial, group generator, cluster).
NODES = {
    "A": ("x1^3+x2^4+x2*x3^2", "", 1),
    "B": ("x1^8+x2^3+x3^2", "1/2,0,1/2", 1),
    "C": ("x1^4+x1*x3^2+x2^3", "", 1),
    "D": ("x1^4+x2^3+x3^3", "0,2/3,1/3", 2),
    "E": ("x1^4+x2^2*x3+x2*x3^2", "", 2),
    "F": ("x1^4+x2^3*x3+x3^2", "0,1/2,1/2", 2),
    "G": ("x1^5+x2^2+x2*x3^2", "", 3),
    "H": ("x1^5+x2^4+x3^2", "0,1/2,1/2", 3),
    "I": ("x1^5+x2^2*x3+x3^2", "", 3),
    "J": ("x1^4+x2^3+x3^3", "0,2/3,1/3", 4),
    "K": ("x1^4+x2^2*x3+x2*x3^2", "", 4),
    "L": ("x1^4+x2^3*x3+x3^2", "0,1/2,1/2", 4),
    "M": ("x1^4+x2^3*x3+x3^2", "0,1/2,1/2", 4),
    "O": ("x1^5*x2+x2^2+x3^3", "1/2,1/2,0", 5),
    "P": ("x1^3+x2^3*x3+x2*x3^2", "", 5),
    "Q": ("x1^3*x3+x1*x3^2+x2^3", "", 5),
    "R": ("x1^5+x1*x3^2+x2^3", "", 5),
    "S": ("x1^3*x2+x1*x3^3+x2^2", "", 6),
    "T": ("x1^3*x3+x1*x2^3+x3^2", "", 6),
    "U": ("x1^6*x2+x2^3+x3^2", "1/2,0,1/2", 7),
    "V": ("x1^3*x2+x1*x3^2+x2^3", "", 7),
    "W": ("x1^4*x3+x2^3+x3^2", "", 8),
    "X": ("x1^4*x2+x2^2+x3^3", "", 8),
}
CLUSTER_TYPE = {1: "Q10", 2: "U12", 3: "W12", 4: "U12",
                5: "Q12", 6: "Z13", 7: "Q11", 8: "E14"}

ROWS = range(1, 21)
ALGEBRA_ONLY_ROWS = {19, 20}
WITNESS_ROWS = {2, 3, 6, 7, 8, 12, 18}  # rows carrying an embedded witness


def subscript(type_name: str) -> int:
    return int(type_name[1:])


def group_order(poly: str) -> int:
    """|G_f| = |det E_f| for an invertible polynomial in x1..xn."""
    terms = poly.split("+")
    n = len(terms)
    matrix = [[0] * n for _ in range(n)]
    for row, term in enumerate(terms):
        for var, exp in re.findall(r"x(\d+)(?:\^(\d+))?", term):
            matrix[row][int(var) - 1] = int(exp or 1)
    det = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        det += term
    return abs(det)


# A check gets the exit status and standard output of one command and
# returns "" when both are as expected, otherwise what differed.
Check = Callable[[int, str], str]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Check


def _json_check(status: int, expect: Callable[[dict], list[str]]) -> Check:
    def check(code: int, stdout: str) -> str:
        if code != status:
            return f"exit status {code}, expected {status}"
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        return "; ".join(expect(payload))
    return check


def _verify_expect(search: bool) -> Callable[[dict], list[str]]:
    def expect(payload: dict) -> list[str]:
        errors = []
        rows = {r["index"]: r for r in payload["rows"]}
        if sorted(rows) != list(ROWS):
            return [f"rows {sorted(rows)}"]
        for index, row in rows.items():
            cert = row["certificate"]
            level = "algebra" if index in ALGEBRA_ONLY_ROWS else "frobenius"
            method = ("embedded witness" if index in WITNESS_ROWS and not search
                      else "ansatz search")
            if cert is None or (cert["level"], cert["method"]) != (level, method):
                errors.append(f"row {index}: {cert and (cert['level'], cert['method'])}"
                              f", expected {(level, method)}")
        frobenius = len(ROWS) - len(ALGEBRA_ONLY_ROWS)
        if (payload["frobenius"], payload["total"], payload["passed"]) != \
                (frobenius, len(ROWS), False):
            errors.append("summary " + str((payload["frobenius"], payload["total"],
                                             payload["passed"])))
        return errors
    return expect


def _graph_expect(payload: dict) -> list[str]:
    errors = []
    nodes = {n["label"]: n for n in payload["nodes"]}
    if sorted(nodes) != sorted(NODES):
        return [f"nodes {sorted(nodes)}"]
    for label, node in nodes.items():
        dim = subscript(CLUSTER_TYPE[NODES[label][2]])
        if (node["dimension"], node["fingerprint"]["dim"]) != (dim, dim):
            errors.append(f"node {label}: dimension {node['dimension']}, expected {dim}")
    clusters = {}
    for label, (_, _, cluster) in NODES.items():
        clusters.setdefault(cluster, []).append(label)
    expected = {frozenset(pair) for members in clusters.values()
                for pair in combinations(members, 2)}
    edges = {frozenset((e["a"], e["b"])) for e in payload["edges"]}
    if len(payload["edges"]) != 24 or edges != expected:
        errors.append(f"{len(payload['edges'])} edges, expected the 24 in-cluster pairs")
    if any(e["certificate"] != "closure of certified isomorphisms"
           for e in payload["edges"]):
        errors.append("an edge is not certified")
    if sorted(map(sorted, payload["components"])) != sorted(map(sorted, clusters.values())):
        errors.append("components differ from the clusters")
    return errors


def _pairing_check(dim: int) -> Check:
    """Text `orbifold --pairing`: the nondegenerate pairing touches every basis
    element, so the distinct left labels number the algebra's dimension."""
    line_re = re.compile(r"eta\[(.+), (.+)\] = \S.*")

    def check(code: int, stdout: str) -> str:
        if code != 0:
            return f"exit status {code}, expected 0"
        pairs = set()
        for line in stdout.splitlines():
            match = line_re.fullmatch(line)
            if match is None:
                return f"unexpected line {line!r}"
            pairs.add(match.groups())
        left = {a for a, _ in pairs}
        if len(left) != dim:
            return f"pairing spans {len(left)} basis elements, expected {dim}"
        if any((b, a) not in pairs for a, b in pairs):
            return "pairing is not symmetric"
        return ""
    return check


def verify_pass(rng: random.Random) -> list[Command]:
    return [Command(("verify", "--all", "--json"), _json_check(1, _verify_expect(False))),
            Command(("verify", "--all", "--search", "--json"),
                    _json_check(1, _verify_expect(True)))]


def graph_pass(rng: random.Random) -> list[Command]:
    return [Command(("graph", "--json"), _json_check(0, _graph_expect))]


def _count_check(key: str, items: str, expected: int) -> Check:
    """`key` of the JSON payload, and the length of its `items` list, equal `expected`."""
    def expect(payload: dict) -> list[str]:
        if (payload[key], len(payload[items])) == (expected, expected):
            return []
        return [f"{key} {payload[key]}, {len(payload[items])} {items}, expected {expected}"]
    return _json_check(0, expect)


def queries_pass(rng: random.Random) -> list[Command]:
    commands = []
    for type_name, variants in TYPES.items():
        for poly in variants:
            commands.append(Command(("jacobian", poly, "--json"),
                                    _count_check("dimension", "basis", subscript(type_name))))
            commands.append(Command(("symmetry", poly, "--json"),
                                    _count_check("order", "elements", group_order(poly))))
    for label, (poly, generator, cluster) in NODES.items():
        group = generator or "0,0,0"
        commands.append(Command(("orbifold", poly, "--group", group, "--pairing"),
                                _pairing_check(subscript(CLUSTER_TYPE[cluster]))))
    rng.shuffle(commands)
    return commands


# A fresh interpreter that pays what every command of the workload pays
# before its own work: importing the CLI, plus loading (and so validating)
# the bundled catalog where the workload's commands do.
IMPORT_CLI = "import oja.cli"
LOAD_CATALOG = "import oja.cli; from oja.catalog import load_catalog; load_catalog()"

WORKLOADS = {
    "verify": (verify_pass, LOAD_CATALOG),
    "graph": (graph_pass, LOAD_CATALOG),
    "queries": (queries_pass, IMPORT_CLI),
}
