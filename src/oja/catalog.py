"""Bundled catalog of dual singularities, verification rows, and graph nodes.

The catalog is a JSON document with three sections:

* ``entries`` — the fourteen exceptional unimodal singularity types, each with
  its strange dual and the invertible polynomial variants realising it;
* ``rows`` — twenty verification rows, each pairing a polynomial ``f1`` with a
  transposed-variant target ``f2_transpose`` and a symmetry generator, and
  optionally carrying an embedded isomorphism witness;
* ``graph_nodes`` — the labelled (polynomial, group) pairs of the isomorphism
  graph, partitioned into clusters.

``load_catalog`` reads and validates a catalog (the bundled one by default).
``row_source``, ``row_target`` and ``row_witness`` turn a row into live objects.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .duality import GraphNode, IsoWitness
from .linalg import add_scaled
from .orbifold import check_group, orbifold_algebra
from .poly import Poly, parse
from .scalar import CycScalar, I_UNIT, SQRT2, SQRT3
from .symmetry import (GroupElement, InvertiblePoly, SymmetryGroup, parse_group,
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


# section, record noun, each field's JSON types; the first field names the
# record in messages ("row 2"), or its position does when that field is bad
_SHAPE = (
    ("entries", "entry", {"type": (str,), "dual": (str,), "variants": (list,)}),
    ("rows", "row", {"index": (int,), "f1_type": (str,), "f1": (str,),
                     "f2_transpose": (str,), "generator": (str,), "f2_type": (str,),
                     "reduced": (bool,), "witness": (dict, type(None))}),
    ("graph_nodes", "graph node", {"label": (str,), "f": (str,), "generator": (str,),
                                   "cluster": (int,)}),
)
_JSON_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
               list: "a list", dict: "an object", type(None): "null"}


def _check_type(name: str, value, kinds: tuple) -> None:
    if type(value) not in kinds:  # exact: a bool is no integer, an integer no bool
        raise ValueError(f"{name} is {_JSON_NAMES[type(value)]}, not "
                         + " or ".join(_JSON_NAMES[k] for k in kinds))


def _check_shape(data) -> None:
    """Check the JSON types of a catalog document before anything reads it, so
    that every error names the record and the field at fault."""
    _check_type("catalog document", data, (dict,))
    if "version" not in data:
        raise ValueError("missing key 'version'")
    _check_type("version", data["version"], (int,))
    if data["version"] != 1:  # another version may be shaped otherwise
        raise ValueError(f"unsupported catalog version {data['version']!r}")
    for section, noun, fields in _SHAPE:
        if section not in data:
            raise ValueError(f"missing key {section!r}")
        _check_type(section, data[section], (list,))
        for position, record in enumerate(data[section]):
            _check_type(f"{section}[{position}]", record, (dict,))
            key, key_kinds = next(iter(fields.items()))
            name = (f"{noun} {record[key]}" if type(record.get(key)) in key_kinds
                    else f"{section}[{position}]")
            for field, kinds in fields.items():
                if field not in record:
                    raise ValueError(f"{name}: missing key {field!r}")
                _check_type(f"{name}: {field}", record[field], kinds)
            if section == "entries":
                for variant in record["variants"]:
                    _check_type(f"{name}: variant", variant, (str,))
            elif section == "rows" and record["witness"] is not None:
                if "images" not in record["witness"]:
                    raise ValueError(f"{name}: witness: missing key 'images'")
                images = record["witness"]["images"]
                _check_type(f"{name}: witness images", images, (list,))
                for image in images:
                    _check_type(f"{name}: witness image", image, (list,))
                    for term in image:
                        if (type(term) is not list or len(term) != 3
                                or not all(type(t) is str for t in term)):
                            raise ValueError(
                                f"{name}: witness term {term!r} is not three strings "
                                "(scalar, monomial, sector)")


class Catalog:
    """Parsed catalog: typed views plus the raw JSON document."""

    def __init__(self, data: dict):
        _check_shape(data)
        self.data = data
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
            GraphNode(n["label"], (ip := _invertible(n["f"], f"graph node {n['label']}: f")),
                      _group_from_generator(n["generator"], ip, f"graph node {n['label']}"),
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


def _invertible(text: str, where: str) -> InvertiblePoly:
    """Read an invertible polynomial; an error starts with `where`, the record
    and the field the text came from, as in "row 2: f1"."""
    try:
        return parse_invertible(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _group_from_generator(generator: str, ip: InvertiblePoly, record: str) -> SymmetryGroup:
    """Read a record's group (no generator: the trivial one) and check that the
    orbifold construction applies; an error starts with `record`."""
    try:
        group = parse_group([generator] if generator else [], ip)
        check_group(ip, group)
    except ValueError as exc:
        raise ValueError(f"{record}: {exc}") from None
    return group


_SYMBOLIC_SCALARS = {"i": I_UNIT, "sqrt2": SQRT2, "sqrt3": SQRT3}


def _parse_scalar(text: str) -> CycScalar:
    """Parse '-1/4', 'i/2', 'sqrt3/3', ... into an exact scalar; raises
    ValueError or ZeroDivisionError on anything else."""
    negative = text.startswith("-")
    body = text[1:] if negative else text
    base, _, denominator = body.partition("/")
    if base in _SYMBOLIC_SCALARS:
        value = _SYMBOLIC_SCALARS[base]
        if denominator:
            value = value * CycScalar.from_rational(Fraction(1, int(denominator)))
    else:
        value = CycScalar.from_rational(Fraction(body))
    return -value if negative else value


def row_source(row: CatalogRow) -> InvertiblePoly:
    return _invertible(row.f1, f"row {row.index}: f1")


def row_target(row: CatalogRow) -> tuple[InvertiblePoly, SymmetryGroup]:
    ip = _invertible(row.f2_transpose, f"row {row.index}: f2_transpose")
    return ip, _group_from_generator(row.generator, ip, f"row {row.index}")


def row_witness(row: CatalogRow) -> IsoWitness | None:
    """Build the row's embedded isomorphism witness, if it has one.  Each
    (scalar, monomial, sector) term is checked; `_check_shape` has made it
    three strings."""
    if row.witness is None:
        return None
    source = row_source(row)
    target_ip, group = row_target(row)
    if len(row.witness) != source.arity:
        raise ValueError(f"row {row.index}: witness needs {source.arity} images")
    algebra = orbifold_algebra(target_ip, group)
    images = []
    for image in row.witness:
        vector: dict[int, CycScalar] = {}
        for scalar_text, monomial_text, sector_text in image:
            try:
                scalar = _parse_scalar(scalar_text)
            except (ValueError, ZeroDivisionError):
                raise ValueError(
                    f"row {row.index}: witness scalar {scalar_text!r} is not a rational "
                    "number or i, sqrt2 or sqrt3 over an integer") from None
            try:
                monomial = parse(monomial_text, target_ip.vars)
            except ValueError as exc:
                raise ValueError(
                    f"row {row.index}: witness monomial {monomial_text!r}: {exc}") from None
            try:
                sector = GroupElement.parse(sector_text)
            except ValueError as exc:
                raise ValueError(f"row {row.index}: witness sector: {exc}") from None
            if sector not in group:
                raise ValueError(
                    f"row {row.index}: witness sector ({sector_text}) is not in the row's group")
            try:
                add_scaled(vector, scalar, algebra.element(monomial, sector))
            except ValueError as exc:
                raise ValueError(f"row {row.index}: witness {exc}") from None
        images.append(vector)
    return IsoWitness(source, algebra, tuple(images))


def _validate(catalog: Catalog) -> None:
    if len(catalog.entries) != 14:
        raise ValueError(f"expected 14 entries, found {len(catalog.entries)}")
    names = [e.type_name for e in catalog.entries]
    if len(set(names)) != len(names):
        raise ValueError("duplicate entry types")
    for entry in catalog.entries:  # each variant is read before any entry's partner reads it
        for variant in entry.variants:  # raises if not invertible with isolated singularity
            _invertible(variant, f"entry {entry.type_name}: variant")
    for entry in catalog.entries:
        if entry.strange_dual not in catalog._by_type:
            raise ValueError(f"{entry.type_name}: unknown dual {entry.strange_dual}")
        partner = catalog.entry(entry.strange_dual)
        if partner.strange_dual != entry.type_name:
            raise ValueError(
                f"duality is not an involution at {entry.type_name}")
        if not entry.variants:
            raise ValueError(f"{entry.type_name}: no variants")
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
        for field, type_name in (("f1_type", row.f1_type), ("f2_type", row.f2_type)):
            if type_name not in catalog._by_type:
                raise ValueError(f"row {row.index}: {field} {type_name!r} is not an entry type")
        source = row_source(row)
        entry = catalog.entry(row.f1_type)
        if not any(source.poly == parse_invertible(v).poly for v in entry.variants):
            raise ValueError(
                f"row {row.index}: f1 is not a listed {row.f1_type} variant")
        target_ip, _ = row_target(row)
        if row.reduced != (row.witness is not None):
            raise ValueError(
                f"row {row.index}: reduced rows carry a witness, others do not")
        partner = catalog.entry(row.f2_type)
        if not any(
                same_up_to_variable_permutation(_transposed(v), target_ip.poly)
                for v in partner.variants):
            raise ValueError(
                f"row {row.index}: target is not a transposed {row.f2_type} "
                "variant up to renaming")
        row_witness(row)  # built as every command builds it, so a fault shows here

    labels = [n.label for n in catalog.graph_nodes]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate graph node labels")
    if len(labels) != 23:
        raise ValueError(f"expected 23 graph nodes, found {len(labels)}")


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load and validate a catalog; with no path, the bundled one."""
    if path is None:
        data = _default_data()
    else:
        data = json.loads(Path(path).read_text())
    catalog = Catalog(data)
    _validate(catalog)
    return catalog
