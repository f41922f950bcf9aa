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

Exit codes: 0 on success, 1 on a verification failure, 2 on bad input, 120 on
an output that cannot be written.
"""

from __future__ import annotations

import argparse
import atexit
import importlib.util
import json
import os
import sys
from typing import Callable, NoReturn, Sequence

from .jacobian import QuotientAlgebra, milnor, quotient_algebra, trace_functional
from .poly import Poly, infer_vars, is_name, parse
from .scalar import CycScalar
from .symmetry import (max_symmetry_group, parse_group, parse_invertible, sl_subgroup,
                       transpose)


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
        raise ValueError(f"bad variable list {spec!r}")
    return names


def _load_catalog(args: argparse.Namespace) -> catalog.Catalog:
    try:
        return catalog.load_catalog(args.catalog)
    except FileNotFoundError:
        raise ValueError(f"catalog file not found: {args.catalog}") from None
    except OSError as exc:
        raise ValueError(f"cannot read catalog file {args.catalog}: {exc.strerror}") from None
    except KeyError as exc:
        raise ValueError(f"invalid catalog: missing key {exc}") from None
    except (json.JSONDecodeError, RecursionError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid catalog: {exc}") from None


# --- output helpers ----------------------------------------------------------


def _write(text: str) -> None:
    """The one writer of stdout: one write and one flush, inside `main`'s `try`."""
    sys.stdout.write(text)
    sys.stdout.flush()


def _emit(args: argparse.Namespace, payload: Callable[[], dict],
          lines: Callable[[], list[str]]) -> None:
    """Write the JSON payload under --json, else the text lines; only the
    printed form is built."""
    _write(json.dumps(payload(), indent=2, sort_keys=True) + "\n" if args.json
           else "".join(f"{line}\n" for line in lines()))


def _mono_str(vars: Sequence[str], exponents: Sequence[int]) -> str:
    return str(Poly.monomial(tuple(vars), tuple(exponents)))


# --- subcommands -------------------------------------------------------------


def cmd_transpose(args: argparse.Namespace) -> int:
    vars = _explicit_vars(args.vars) if args.vars is not None else None
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
    gens = [str(g) for g in group.generators]
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
    trace = trace_functional(algebra, algebra.mu)(Poly.monomial(algebra.vars, algebra.socle))
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
    algebra = orbifold.orbifold_algebra(ip, parse_group(args.group, ip))
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
    levels = [(row.index, cert.level if cert is not None else "failed")
              for row, cert, _ in results]
    partial = [i for i, level in levels if level == "algebra"]
    failed = [i for i, level in levels if level == "failed"]
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
            raise ValueError(f"no catalog row {args.row}") from None
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
    except duality.SearchFailure as exc:  # any other ValueError is bad input
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


class _Parser(argparse.ArgumentParser):
    """`--help` writes through `_write`: argparse's own writer drops an OSError.
    Every subparser is built with the parent's class, so it inherits this."""

    def print_help(self, file=None) -> None:
        if file is not None:
            return super().print_help(file)
        _write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = parser.parse_args(argv)
        if args.func is None:
            parser.print_help(sys.stderr)
            return 2
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # only writing the output can raise it here
        print(f"error: cannot write the output: {exc.strerror}", file=sys.stderr)
        return 120


def run() -> NoReturn:
    """Entry point of `python -m oja.cli` and the `oja` script: run `main` and
    end the process with its exit code.

    When the caller is the top level of the process's `__main__` module,
    nothing runs after this call, so it skips interpreter teardown (freeing
    modules, caches and algebras that the OS reclaims anyway): it runs the
    `atexit` handlers, flushes stderr (`_write` flushed stdout) and calls
    `os._exit`.  Otherwise, as under `python -m cProfile -m oja.cli` (which
    runs this module in a namespace of its own and prints its report after the
    `SystemExit`), and on an argparse exit or an uncaught exception, the
    process ends through the exception, as a script's does.
    """
    code = main()
    if sys._getframe(1).f_globals is sys.modules["__main__"].__dict__:
        atexit._run_exitfuncs()
        sys.stderr.flush()
        os._exit(code)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
