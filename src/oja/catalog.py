"""Bundled catalog of dual singularities, verification rows, and graph nodes.

The catalog is a JSON document with three sections:

* ``entries`` — the fourteen exceptional unimodal singularity types, each with
  its strange dual and the invertible polynomial variants realising it;
* ``rows`` — twenty verification rows, each pairing a polynomial ``f1`` with a
  transposed-variant target ``f2_transpose`` and a symmetry generator, and
  optionally carrying an embedded isomorphism witness;
* ``graph_nodes`` — the labelled (polynomial, group) pairs of the isomorphism
  graph, partitioned into clusters.

``load_catalog`` parses and validates a catalog (the bundled one by default);
``serialize`` writes it back out byte-for-byte.  ``row_source``,
``row_target`` and ``row_witness`` turn a row into live objects.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .duality import GraphNode, IsoWitness
from .jacobian import add_scaled
from .orbifold import orbifold_algebra
from .poly import ENUMERATION_LIMIT, Poly, parse
from .scalar import CycScalar, I_UNIT, SQRT2, SQRT3
from .symmetry import (GroupElement, InvertiblePoly, SymmetryGroup, is_sl_symmetry,
                       parse_invertible, same_up_to_variable_permutation, transpose)

# type, strange dual, polynomial variants
_ENTRY_TABLE = (
    ("E12", "E12", ("x1^7+x2^3+x3^2",)),
    ("E13", "Z11", ("x2^3+x1^5*x2+x3^2",)),
    ("E14", "Q10", ("x1^4*x3+x2^3+x3^2", "x1^8+x2^3+x3^2")),
    ("Z11", "E13", ("x1^5+x1*x2^3+x3^2",)),
    ("Z12", "Z12", ("x1^4*x2+x1*x2^3+x3^2",)),
    ("Z13", "Q11", ("x1^3*x3+x1*x2^3+x3^2", "x1^6+x1*x2^3+x3^2")),
    ("W12", "W12", ("x1^5+x2^2*x3+x3^2", "x1^5+x2^4+x3^2")),
    ("W13", "S11", ("x1^4*x2+x2^2*x3+x3^2", "x1^4*x2+x2^4+x3^2")),
    ("Q10", "E14", ("x1^4+x2^3+x1*x3^2",)),
    ("Q11", "Z13", ("x1^3*x2+x2^3+x1*x3^2",)),
    ("Q12", "Q12", ("x1^3*x3+x2^3+x1*x3^2", "x1^5+x2^3+x1*x3^2")),
    ("S11", "W13", ("x1^4+x2^2*x3+x1*x3^2",)),
    ("S12", "S12", ("x1^3*x2+x2^2*x3+x1*x3^2",)),
    ("U12", "U12", ("x1^4+x2^3+x3^3", "x1^4+x2^3+x2*x3^2",
                    "x1^4+x2^2*x3+x2*x3^2")),
)

# index, f1 type, f1, transposed variant of f2, generator, f2 type, reduced,
# witness images (one term list per source variable: scalar, monomial, sector)
_ROW_TABLE = (
    (1, "E14", "x1^8+x2^3+x3^2",
     "x1^4*x2+x2^2+x3^3", "", "Q10", False, None),
    (2, "Q10", "x1^4+x2^3+x1*x3^2",
     "x1^8+x2^3+x3^2", "1/2,0,1/2", "E14", True,
     ((("1", "x1^2", "0,0,0"),),
      (("1", "x2", "0,0,0"),),
      (("i/2", "1", "1/2,0,1/2"),))),
    (3, "Q11", "x1^3*x2+x2^3+x1*x3^2",
     "x1^6*x2+x2^3+x3^2", "1/2,0,1/2", "Z13", True,
     ((("1", "x1^2", "0,0,0"),),
      (("1", "x2", "0,0,0"),),
      (("i/2", "1", "1/2,0,1/2"),))),
    (4, "Q12", "x2^3+x1^3*x3+x1*x3^2",
     "x1^5*x2+x2^2+x3^3", "1/2,1/2,0", "Q12", False, None),
    (5, "Q12", "x1^5+x2^3+x1*x3^2",
     "x1^3+x2^3*x3+x2*x3^2", "", "Q12", False, None),
    (6, "Q12", "x1^5+x2^3+x1*x3^2",
     "x1^5*x2+x2^2+x3^3", "1/2,1/2,0", "Q12", True,
     ((("1", "x1^2", "0,0,0"),),
      (("-1/4", "x3", "0,0,0"),),
      (("1", "1", "1/2,1/2,0"),))),
    (7, "S11", "x1^4+x2^2*x3+x1*x3^2",
     "x1^4+x1*x2^4+x3^2", "0,1/2,1/2", "W13", True,
     ((("1", "x1", "0,0,0"),),
      (("i/2", "1", "0,1/2,1/2"),),
      (("1", "x2^2", "0,0,0"),))),
    (8, "U12", "x1^4+x2^3+x3^3",
     "x1^4+x2^3+x3^3", "0,2/3,1/3", "U12", True,
     ((("1/3", "x1", "0,0,0"),),
      (("sqrt3/3", "1", "0,2/3,1/3"),),
      (("sqrt3/3", "1", "0,1/3,2/3"),))),
    (9, "U12", "x1^4+x2^3+x3^3",
     "x1^4+x2^3*x3+x3^2", "0,1/2,1/2", "U12", False, None),
    (10, "U12", "x1^4+x2^3+x3^3",
     "x1^4+x2^2*x3+x2*x3^2", "", "U12", False, None),
    (11, "U12", "x1^4+x2^3+x2*x3^2",
     "x1^4+x2^3+x3^3", "0,2/3,1/3", "U12", False, None),
    (12, "U12", "x1^4+x2^3+x2*x3^2",
     "x1^4+x2^3*x3+x3^2", "0,1/2,1/2", "U12", True,
     ((("i/2", "x1", "0,0,0"),),
      (("1", "x2^2", "0,0,0"),),
      (("1", "1", "0,1/2,1/2"),))),
    (13, "U12", "x1^4+x2^3+x2*x3^2",
     "x1^4+x2^2*x3+x2*x3^2", "", "U12", False, None),
    (14, "U12", "x1^4+x2^2*x3+x2*x3^2",
     "x1^4+x2^3+x3^3", "0,2/3,1/3", "U12", False, None),
    (15, "U12", "x1^4+x2^2*x3+x2*x3^2",
     "x1^4+x2^3*x3+x3^2", "0,1/2,1/2", "U12", False, None),
    (16, "W12", "x1^5+x2^2*x3+x3^2",
     "x1^5+x2^4+x3^2", "0,1/2,1/2", "W12", False, None),
    (17, "W12", "x1^5+x2^4+x3^2",
     "x1^5+x2^2+x2*x3^2", "", "W12", False, None),
    (18, "W12", "x1^5+x2^4+x3^2",
     "x1^5+x2^4+x3^2", "0,1/2,1/2", "W12", True,
     ((("1/2", "x1", "0,0,0"),),
      (("sqrt2/2", "1", "0,1/2,1/2"),),
      ())),
    (19, "W13", "x1^4*x2+x2^4+x3^2",
     "x1^4*x2+x2^2*x3+x3^2", "", "S11", False, None),
    (20, "Z13", "x1^6+x1*x2^3+x3^2",
     "x1^3*x2+x2^2+x1*x3^3", "", "Q11", False, None),
)

# label, polynomial, generator, cluster
_NODE_TABLE = (
    ("A", "x1^3+x2^4+x2*x3^2", "", 1),
    ("B", "x1^8+x2^3+x3^2", "1/2,0,1/2", 1),
    ("C", "x1^4+x1*x3^2+x2^3", "", 1),
    ("D", "x1^4+x2^3+x3^3", "0,2/3,1/3", 2),
    ("E", "x1^4+x2^2*x3+x2*x3^2", "", 2),
    ("F", "x1^4+x2^3*x3+x3^2", "0,1/2,1/2", 2),
    ("G", "x1^5+x2^2+x2*x3^2", "", 3),
    ("H", "x1^5+x2^4+x3^2", "0,1/2,1/2", 3),
    ("I", "x1^5+x2^2*x3+x3^2", "", 3),
    ("J", "x1^4+x2^3+x3^3", "0,2/3,1/3", 4),
    ("K", "x1^4+x2^2*x3+x2*x3^2", "", 4),
    ("L", "x1^4+x2^3*x3+x3^2", "0,1/2,1/2", 4),
    ("M", "x1^4+x2^3*x3+x3^2", "0,1/2,1/2", 4),
    ("O", "x1^5*x2+x2^2+x3^3", "1/2,1/2,0", 5),
    ("P", "x1^3+x2^3*x3+x2*x3^2", "", 5),
    ("Q", "x1^3*x3+x1*x3^2+x2^3", "", 5),
    ("R", "x1^5+x1*x3^2+x2^3", "", 5),
    ("S", "x1^3*x2+x1*x3^3+x2^2", "", 6),
    ("T", "x1^3*x3+x1*x2^3+x3^2", "", 6),
    ("U", "x1^6*x2+x2^3+x3^2", "1/2,0,1/2", 7),
    ("V", "x1^3*x2+x1*x3^2+x2^3", "", 7),
    ("W", "x1^4*x3+x2^3+x3^2", "", 8),
    ("X", "x1^4*x2+x2^2+x3^3", "", 8),
)


def _default_data() -> dict:
    return {
        "version": 1,
        "entries": [
            {"type": name, "dual": dual, "variants": list(variants)}
            for name, dual, variants in _ENTRY_TABLE],
        "rows": [
            {"index": index, "f1_type": f1_type, "f1": f1,
             "f2_transpose": f2t, "generator": generator, "f2_type": f2_type,
             "reduced": reduced,
             "witness": None if witness is None else
             {"images": [[list(term) for term in image] for image in witness]}}
            for index, f1_type, f1, f2t, generator, f2_type, reduced, witness
            in _ROW_TABLE],
        "graph_nodes": [
            {"label": label, "f": f, "generator": generator, "cluster": cluster}
            for label, f, generator, cluster in _NODE_TABLE],
    }


class CatalogEntry(NamedTuple):
    """One singularity type: its strange dual and polynomial variants."""

    type_name: str
    strange_dual: str
    variants: tuple[str, ...]


class CatalogRow(NamedTuple):
    """One verification row.

    `witness` keeps the raw image data (scalar, monomial, sector triples per
    source variable); `row_witness` turns it into an IsoWitness.
    """

    index: int
    f1_type: str
    f1: str
    f2_transpose: str
    generator: str
    f2_type: str
    reduced: bool
    witness: tuple | None


class Catalog:
    """Parsed catalog: typed views plus the raw document for serialization."""

    def __init__(self, data: dict):
        self.data = data
        self.version = data["version"]
        self.entries = tuple(
            CatalogEntry(e["type"], e["dual"], tuple(e["variants"]))
            for e in data["entries"])
        self.rows = tuple(
            CatalogRow(r["index"], r["f1_type"], r["f1"], r["f2_transpose"],
                       r["generator"], r["f2_type"], r["reduced"],
                       None if r["witness"] is None else
                       tuple(tuple(tuple(term) for term in image)
                             for image in r["witness"]["images"]))
            for r in data["rows"])
        self.graph_nodes = tuple(
            GraphNode(n["label"], parse_invertible(n["f"]),
                      _group_from_generator(n["generator"], parse_invertible(n["f"]).arity),
                      n["cluster"])
            for n in data["graph_nodes"])
        self._by_type = {e.type_name: e for e in self.entries}
        self._by_index = {r.index: r for r in self.rows}

    def entry(self, type_name: str) -> CatalogEntry:
        return self._by_type[type_name]

    def row(self, index: int) -> CatalogRow:
        return self._by_index[index]


@lru_cache(maxsize=None)
def _transposed(text: str) -> Poly:
    """The transpose of a catalog variant, computed once per distinct text."""
    return transpose(parse_invertible(text)).poly


def _group_from_generator(generator: str, arity: int) -> SymmetryGroup:
    if not isinstance(generator, str):
        raise ValueError(f"group generator must be a string, got {generator!r}")
    if not generator:
        return SymmetryGroup.trivial(arity)
    g = GroupElement.parse(generator)
    if g.order() > ENUMERATION_LIMIT:  # the group is listed element by element
        raise ValueError(f"group generator ({generator}) has order {g.order()}, above "
                         f"the enumeration limit of {ENUMERATION_LIMIT}")
    return SymmetryGroup.generated_by([g], arity)


_SYMBOLIC_SCALARS = {"i": I_UNIT, "sqrt2": SQRT2, "sqrt3": SQRT3}


def _parse_scalar(text: str) -> CycScalar:
    """Parse '-1/4', 'i/2', 'sqrt3/3', ... into an exact scalar."""
    negative = text.startswith("-")
    body = text[1:] if negative else text
    base, _, denominator = body.partition("/")
    try:
        if base in _SYMBOLIC_SCALARS:
            value = _SYMBOLIC_SCALARS[base]
            if denominator:
                value = value * CycScalar.from_rational(
                    Fraction(1, int(denominator)))
        else:
            value = CycScalar.from_rational(Fraction(body))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad witness scalar {text!r}") from None
    return -value if negative else value


def row_source(row: CatalogRow) -> InvertiblePoly:
    return parse_invertible(row.f1)


def row_target(row: CatalogRow) -> tuple[InvertiblePoly, SymmetryGroup]:
    ip = parse_invertible(row.f2_transpose)
    return ip, _group_from_generator(row.generator, ip.arity)


def _witness_terms(row: CatalogRow, arity: int, target_ip: InvertiblePoly,
                   group: SymmetryGroup) -> list[list[tuple[CycScalar, Poly, GroupElement]]]:
    """Parse and check a row's witness: its (scalar, monomial, sector) terms per image."""
    if len(row.witness) != arity:
        raise ValueError(f"row {row.index}: witness needs {arity} images")
    images = []
    for image in row.witness:
        terms = []
        for term in image:
            if len(term) != 3 or not all(isinstance(t, str) for t in term):
                raise ValueError(f"row {row.index}: witness term {list(term)!r} is not "
                                 "three strings (scalar, monomial, sector)")
            scalar_text, monomial_text, sector_text = term
            scalar = _parse_scalar(scalar_text)
            try:
                monomial = parse(monomial_text, target_ip.vars)
            except ValueError as exc:
                raise ValueError(
                    f"row {row.index}: witness monomial {monomial_text!r}: {exc}") from None
            if (sector := GroupElement.parse(sector_text)) not in group:
                raise ValueError(
                    f"row {row.index}: witness sector ({sector_text}) is not in the row's group")
            terms.append((scalar, monomial, sector))
        images.append(terms)
    return images


def row_witness(row: CatalogRow) -> IsoWitness | None:
    """Build the row's embedded isomorphism witness, if it has one."""
    if row.witness is None:
        return None
    source = row_source(row)
    target_ip, group = row_target(row)
    algebra = orbifold_algebra(target_ip, group)
    images = []
    for terms in _witness_terms(row, source.arity, target_ip, group):
        vector: dict[int, CycScalar] = {}
        for scalar, monomial, sector in terms:
            add_scaled(vector, scalar, algebra.element(monomial, sector))
        images.append(vector)
    return IsoWitness(source, algebra, tuple(images))


def _validate(catalog: Catalog) -> None:
    if catalog.version != 1:
        raise ValueError(f"unsupported catalog version {catalog.version!r}")

    if len(catalog.entries) != 14:
        raise ValueError(f"expected 14 entries, found {len(catalog.entries)}")
    names = [e.type_name for e in catalog.entries]
    if len(set(names)) != len(names):
        raise ValueError("duplicate entry types")
    for entry in catalog.entries:
        if entry.strange_dual not in catalog._by_type:
            raise ValueError(f"{entry.type_name}: unknown dual {entry.strange_dual}")
        partner = catalog.entry(entry.strange_dual)
        if partner.strange_dual != entry.type_name:
            raise ValueError(
                f"duality is not an involution at {entry.type_name}")
        if not entry.variants:
            raise ValueError(f"{entry.type_name}: no variants")
        for variant in entry.variants:
            parse_invertible(variant)  # raises if not invertible with isolated singularity
        # Some variant must be a transpose of the dual's, up to renaming.
        if not any(
                same_up_to_variable_permutation(parse_invertible(a).poly, _transposed(b))
                for a in entry.variants for b in partner.variants):
            raise ValueError(
                f"{entry.type_name}: no variant matches a transposed "
                f"{partner.type_name} variant")

    if sorted(r.index for r in catalog.rows) != list(range(1, 21)):
        raise ValueError("row indices must be exactly 1..20")
    for row in catalog.rows:
        source = row_source(row)
        entry = catalog.entry(row.f1_type)
        if not any(source.poly == parse_invertible(v).poly for v in entry.variants):
            raise ValueError(
                f"row {row.index}: f1 is not a listed {row.f1_type} variant")
        target_ip, group = row_target(row)
        if not all(is_sl_symmetry(target_ip, g) for g in group):
            raise ValueError(
                f"row {row.index}: group is not a special-linear symmetry")
        if row.reduced != (row.witness is not None):
            raise ValueError(
                f"row {row.index}: reduced rows carry a witness, others do not")
        if row.witness is not None:
            _witness_terms(row, source.arity, target_ip, group)
        partner = catalog.entry(row.f2_type)
        if not any(
                same_up_to_variable_permutation(_transposed(v), target_ip.poly)
                for v in partner.variants):
            raise ValueError(
                f"row {row.index}: target is not a transposed {row.f2_type} "
                "variant up to renaming")

    labels = [n.label for n in catalog.graph_nodes]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate graph node labels")
    if len(labels) != 23:
        raise ValueError(f"expected 23 graph nodes, found {len(labels)}")
    for node in catalog.graph_nodes:
        if type(node.label) is not str:
            raise ValueError(f"graph node label {node.label!r} is not a string")
        if type(node.cluster) is not int:  # bool is an int subclass, not a cluster id
            raise ValueError(
                f"graph node {node.label}: cluster {node.cluster!r} is not an integer")
        if not all(is_sl_symmetry(node.ip, g) for g in node.group):
            raise ValueError(
                f"graph node {node.label}: group is not a special-linear symmetry")


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load and validate a catalog; with no path, the bundled one."""
    if path is None:
        data = _default_data()
    else:
        data = json.loads(Path(path).read_text())
    catalog = Catalog(data)
    _validate(catalog)
    return catalog


def serialize(catalog: Catalog) -> str:
    """Render a catalog to its canonical JSON text."""
    return json.dumps(catalog.data, indent=2) + "\n"
