"""Command-line front end for the oja toolkit.

Subcommands
-----------
transpose   Berglund–Hübsch transpose of an invertible polynomial.
symmetry    Maximal diagonal symmetry group, or its SL subgroup.
milnor      Milnor number (dimension of the Jacobian algebra).
jacobian    Jacobian algebra: basis, Hessian class, trace normalization.
orbifold    Orbifold Jacobian algebra of a polynomial with a symmetry group.
verify      Certify catalog rows by embedded witness or ansatz search.
graph       Assemble and certify the catalog's isomorphism graph.

The global flags ``--json`` (machine-readable output) and ``--catalog PATH``
(alternate catalog file) are accepted before or after the subcommand.

Exit codes: 0 on success, 1 on a verification failure, 2 on bad input.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
from typing import Callable, Sequence

from .jacobian import QuotientAlgebra, milnor, quotient_algebra
from .poly import ENUMERATION_LIMIT, Poly, infer_vars, is_name, parse
from .scalar import CycScalar
from .symmetry import (GroupElement, SymmetryGroup, is_sl_symmetry, max_symmetry_group,
                       parse_invertible, sl_subgroup, transpose)


class CliError(Exception):
    """Bad command-line input, reported on stderr with exit code 2."""


# Only `orbifold`, `verify` and `graph` need these modules, so a query does not
# pay for compiling them.  Each is put in sys.modules at once and runs on first
# attribute access, so a lookup by name after `import oja.cli` (perfbench's
# tracer makes one) still finds it.
_LAZY = ("oja.catalog", "oja.duality", "oja.orbifold")
for _name in _LAZY:
    if _name not in sys.modules:  # a module imported earlier is kept
        _spec = importlib.util.find_spec(_name)
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        sys.modules[_name] = importlib.util.module_from_spec(_spec)
        _spec.loader.exec_module(sys.modules[_name])
catalog, duality, orbifold = (sys.modules[name] for name in _LAZY)


# --- input parsing -----------------------------------------------------------


def _explicit_vars(spec: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in spec.split(","))
    if not all(map(is_name, names)) or len(set(names)) != len(names):
        raise CliError(f"bad variable list {spec!r}")
    return names


def _group_element(text: str, arity: int) -> GroupElement:
    g = GroupElement.parse(text)
    if g.arity != arity:
        raise CliError(f"group element ({text}) has {g.arity} phases, expected {arity}")
    return g


def _load_catalog(args: argparse.Namespace) -> catalog.Catalog:
    try:
        return catalog.load_catalog(args.catalog)
    except FileNotFoundError:
        raise CliError(f"catalog file not found: {args.catalog}") from None
    except OSError as exc:
        raise CliError(f"cannot read catalog file {args.catalog}: {exc.strerror}") from None
    except KeyError as exc:
        raise CliError(f"invalid catalog: missing key {exc}") from None
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise CliError(f"invalid catalog: {exc}") from None


# --- output helpers ----------------------------------------------------------


def _emit(args: argparse.Namespace, payload: Callable[[], dict],
          lines: Callable[[], list[str]]) -> None:
    """Print the JSON payload under --json, else the text lines; only the
    printed form is built."""
    if args.json:
        print(json.dumps(payload(), indent=2, sort_keys=True))
    else:
        for line in lines():
            print(line)


def _mono_str(vars: Sequence[str], exponents: Sequence[int]) -> str:
    return str(Poly.monomial(tuple(vars), tuple(exponents)))


def _display_generators(group: SymmetryGroup) -> list[GroupElement]:
    """A small deterministic generating set for printing.

    Stored generators are used when there are any; they generate the group.
    Otherwise a cyclic group is shown through its largest maximal-order
    element, and the general case falls back to a greedy closure sweep over
    the canonical element order.
    """
    if group.order == 1:
        return []
    gens = [g for g in group.generators if not g.is_identity()]
    if gens:
        return gens
    cyclic = [g for g in group if g.order() == group.order]
    if cyclic:
        return [max(cyclic, key=lambda g: g.num)]  # one denominator: the group order
    arity = group.elements[0].arity
    chosen: list[GroupElement] = []
    span = SymmetryGroup.trivial(arity)
    for g in group:
        if g in span:
            continue
        chosen.append(g)
        span = SymmetryGroup.generated_by(chosen, arity)
        if span == group:
            break
    return chosen


# --- subcommands -------------------------------------------------------------


def cmd_transpose(args: argparse.Namespace) -> int:
    vars = _explicit_vars(args.vars) if args.vars else None
    tp = transpose(parse_invertible(args.poly, vars))
    _emit(args, lambda: {
        "polynomial": str(tp.poly),
        "variables": list(tp.vars),
        "weights": list(tp.weights),
        "degree": tp.degree,
    }, lambda: [str(tp.poly)])
    return 0


def cmd_symmetry(args: argparse.Namespace) -> int:
    group = max_symmetry_group(parse_invertible(args.poly))
    if args.sl:
        group = sl_subgroup(group)
    gens = [str(g) for g in _display_generators(group)]
    _emit(args, lambda: {"order": group.order, "generators": gens,
                         "elements": [str(g) for g in group]},
          lambda: [f"order {group.order}", *(f"generator ({g})" for g in gens)])
    return 0


def cmd_milnor(args: argparse.Namespace) -> int:
    f = parse(args.poly, infer_vars(args.poly))
    mu = milnor(f)
    _emit(args, lambda: {"polynomial": str(f), "milnor": mu}, lambda: [str(mu)])
    return 0


def _jacobian_lines(args: argparse.Namespace, algebra: QuotientAlgebra,
                    trace: CycScalar) -> list[str]:
    if args.basis:
        return [_mono_str(algebra.vars, m) for m in algebra.basis]
    if args.hessian:
        return [str(algebra.hess_nf)]
    socle = _mono_str(algebra.vars, algebra.socle)
    if args.trace:
        return [f"socle {socle}", f"trace {trace}"]
    return [
        f"dimension {algebra.mu}",
        f"weights {','.join(str(w) for w in algebra.weights)}",
        f"degree {algebra.degree}",
        f"socle {socle}",
    ]


def cmd_jacobian(args: argparse.Namespace) -> int:
    ip = parse_invertible(args.poly)
    algebra = quotient_algebra(ip.poly, ip.weights, ip.degree)
    trace = CycScalar.from_rational(algebra.mu) * algebra.trace_scale
    _emit(args, lambda: {
        "polynomial": str(ip.poly),
        "dimension": algebra.mu,
        "weights": list(algebra.weights),
        "degree": algebra.degree,
        "basis": [_mono_str(algebra.vars, m) for m in algebra.basis],
        "socle": _mono_str(algebra.vars, algebra.socle),
        "hessian": str(algebra.hess_nf),
        "trace": str(trace),
    }, lambda: _jacobian_lines(args, algebra, trace))
    return 0


def _orbifold_lines(args: argparse.Namespace,
                    algebra: orbifold.OrbifoldAlgebra) -> list[str]:
    if args.structure:
        return [f"{algebra.label(i)} * {algebra.label(j)} = "
                f"{algebra.vector_str(algebra.basis_product(i, j))}"
                for (i, j) in sorted(algebra.structure)]
    if args.pairing:
        return [f"eta[{algebra.label(i)}, {algebra.label(j)}] = {c}"
                for i, row in enumerate(algebra.gram) for j, c in sorted(row.items())]
    lines = [f"dimension {algebra.dim}"]
    parity = {0: "even", 1: "odd"}
    lines.extend(f"{algebra.label(i)}  degree {algebra.degrees[i]}  {parity[p]}"
                 for i, p in enumerate(algebra.parities))
    return lines


def cmd_orbifold(args: argparse.Namespace) -> int:
    ip = parse_invertible(args.poly)
    generators = [_group_element(text, ip.arity) for text in args.group]
    bound = math.prod(g.order() for g in generators)  # |<generators>| <= bound
    if bound > ENUMERATION_LIMIT:
        raise CliError(f"the generators' orders multiply to {bound}, above the "
                       f"enumeration limit of {ENUMERATION_LIMIT}")
    group = SymmetryGroup.generated_by(generators, ip.arity)
    if not all(is_sl_symmetry(ip, g) for g in group):
        raise CliError(
            f"<{'; '.join(args.group)}> is not a special-linear symmetry group of {ip.poly}")
    algebra = orbifold.orbifold_algebra(ip, group)
    _emit(args, lambda: {"dimension": algebra.dim, **algebra.to_json()},
          lambda: _orbifold_lines(args, algebra))
    return 0


def _certify_row(row: catalog.CatalogRow, search: bool
                 ) -> tuple[catalog.CatalogRow, duality.RowCertificate | None, str]:
    source = catalog.row_source(row)
    target_ip, group = catalog.row_target(row)
    target = orbifold.orbifold_algebra(target_ip, group)
    witness = None if search else catalog.row_witness(row)
    try:
        return row, duality.certify(source, target, witness), ""
    except duality.SearchFailure as exc:
        return row, None, str(exc)


def _row_line(row: catalog.CatalogRow, cert: duality.RowCertificate | None, error: str) -> str:
    pair = f"{row.f1_type} ~ {row.f2_type}"
    if cert is None:
        return f"row {row.index}: {pair} failed ({error})"
    return f"row {row.index}: {pair} {cert.level} ({cert.method})"


def _verify_lines(args: argparse.Namespace, results: list, full: int) -> list[str]:
    lines = [_row_line(row, cert, error) for row, cert, error in results]
    if args.row is not None:
        row, cert, _ = results[0]
        if cert is not None:
            lines.extend(f"  {v} -> {cert.witness.image_str(i)}"
                         for i, v in enumerate(cert.witness.source.vars))
            lines.extend(
                f"  {check.name}: {'ok' if check.passed else 'FAIL (' + check.detail + ')'}"
                for check in cert.report.checks)
    partial = [row.index for row, cert, _ in results if cert is not None and not cert.full]
    failed = [row.index for row, cert, _ in results if cert is None]
    if len(results) > 1:
        lines.append(f"{full}/{len(results)} rows certified at Frobenius level")
        if partial:
            lines.append("algebra level only: " + " ".join(str(i) for i in partial))
        if failed:
            lines.append("not certified: " + " ".join(str(i) for i in failed))
    return lines


def cmd_verify(args: argparse.Namespace) -> int:
    loaded = _load_catalog(args)
    if args.row is not None:
        try:
            rows = [loaded.row(args.row)]
        except KeyError:
            raise CliError(f"no catalog row {args.row}") from None
    else:
        rows = list(loaded.rows)

    results = [_certify_row(row, args.search) for row in rows]
    full = sum(1 for _, cert, _ in results if cert is not None and cert.full)
    _emit(args, lambda: {
        "rows": [{
            "index": row.index,
            "pair": [row.f1_type, row.f2_type],
            "certificate": cert.to_json() if cert is not None else None,
            "error": error,
        } for row, cert, error in results],
        "frobenius": full,
        "total": len(results),
        "passed": full == len(results),
    }, lambda: _verify_lines(args, results, full))
    return 0 if full == len(results) else 1


def cmd_graph(args: argparse.Namespace) -> int:
    loaded = _load_catalog(args)
    try:
        graph = duality.duality_graph(loaded)
    except ValueError as exc:  # SearchFailure is a ValueError
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    _emit(args, graph.to_json, lambda: [graph.to_dot()] if args.dot else [
        f"nodes {len(graph.nodes)}", f"edges {len(graph.edges)}",
        *("component " + " ".join(comp) for comp in graph.components),
        *graph.certifications,
        *(f"compare {a} {b}: {'equal' if eq else 'distinct'}"
          for a, b, eq in graph.fingerprint_comparisons())])
    return 0


# --- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oja",
        description="Exact orbifold Jacobian algebras over Q(zeta_24).")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    parser.add_argument("--catalog", metavar="PATH", default=None,
                        help="alternate catalog file (default: the embedded catalog)")
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        # Accept the global flags after the subcommand too; SUPPRESS keeps
        # the subparser from clobbering values the root parser already set.
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)
        p.add_argument("--catalog", metavar="PATH", default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    p = command("transpose", cmd_transpose,
                "Berglund-Hubsch transpose of an invertible polynomial")
    p.add_argument("poly", help='polynomial, e.g. "x1^3*x2+x2^3+x3^2"')
    p.add_argument("--vars", metavar="a,b,c", default=None,
                   help="comma-separated variable names (default: inferred)")

    p = command("symmetry", cmd_symmetry,
                "maximal diagonal symmetry group of an invertible polynomial")
    p.add_argument("poly", help="invertible polynomial")
    p.add_argument("--sl", action="store_true",
                   help="restrict to the special-linear (integral-age) subgroup")

    p = command("milnor", cmd_milnor, "Milnor number of an isolated singularity")
    p.add_argument("poly", help="polynomial with an isolated critical point at 0")

    p = command("jacobian", cmd_jacobian,
                "Jacobian algebra of an invertible polynomial")
    p.add_argument("poly", help="invertible polynomial")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--basis", action="store_true",
                      help="print the standard-monomial basis, one per line")
    mode.add_argument("--hessian", action="store_true",
                      help="print the normal form of the Hessian determinant")
    mode.add_argument("--trace", action="store_true",
                      help="print the trace of the socle class")

    p = command("orbifold", cmd_orbifold,
                "orbifold Jacobian algebra for a polynomial and group")
    p.add_argument("poly", help="invertible polynomial")
    p.add_argument("--group", metavar="a1/r,...,aN/r", action="append", required=True,
                   help="group generator as comma-separated phases (repeatable)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--structure", action="store_true",
                      help="print all nonzero basis products")
    mode.add_argument("--pairing", action="store_true",
                      help="print all nonzero pairing values")

    p = command("verify", cmd_verify,
                "certify catalog rows (exit 1 unless all reach Frobenius level)")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--row", type=int, metavar="ID", default=None,
                       help="certify a single catalog row")
    which.add_argument("--all", action="store_true",
                       help="certify every catalog row")
    p.add_argument("--search", action="store_true",
                   help="ignore embedded witnesses and always run the ansatz search")

    p = command("graph", cmd_graph,
                "build the certified isomorphism graph of the catalog")
    p.add_argument("--dot", action="store_true", help="emit Graphviz dot")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.func is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
