"""Run one oja CLI command in this process with every layer wrapped.

    python perfbench/tracer.py OUT.json -- ARGV...

The command runs through ``oja.cli.main(ARGV)`` in a fresh interpreter, so
the program's caches start cold exactly as in an untimed ``python -m oja.cli``
run.  Before ``main`` runs, the public functions listed in ``SPANNED`` are
replaced by wrappers that record one span per call, and the arithmetic
methods listed in ``COUNTED`` by wrappers that only count calls.  Every
module of the package that bound one of those functions by name (for
example ``orbifold.rank`` or ``cli.orbifold_algebra``) is patched as well.
Nothing under ``src/oja`` is edited.

A span holds its name, its parent span, its thread, and its start and end
on two clocks: wall time and the thread's CPU time.  Self and total times
are taken on the thread CPU clock, so that spans on the ``verify --all``
worker threads do not count the time they wait for the interpreter lock.
Each thread keeps its own span stack, span list and counters; the lists are
merged after ``main`` returns and written to OUT.json together with the
per-function summary.  The process exits with ``main``'s status.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

# Layer boundaries: the public module-level functions of each module.  Hot
# helpers (poly.grevlex_key, jacobian.leading_monomial,
# orbifold.fix_union_holds, ...) are left out; their time is the caller's.
SPANNED = {
    "scalar": ("kth_roots", "square_roots"),
    "poly": ("parse",),
    "linalg": ("rref", "rank", "solve_linear", "invert_rational",
               "det_rational", "smith_diagonal"),
    "symmetry": ("build_invertible", "transpose", "max_symmetry_group",
                 "sl_subgroup", "matching_permutations",
                 "same_up_to_variable_permutation"),
    "jacobian": ("groebner", "quotient_algebra", "milnor",
                 "has_isolated_singularity", "trace_functional",
                 "solve_in_quotient", "fingerprint"),
    "orbifold": ("build_sectors", "compute_H", "twisted_algebra",
                 "invariant_subalgebra", "orbifold_algebra"),
    "duality": ("source_algebra", "evaluate_in_target", "verify_algebra_iso",
                "verify_frobenius_iso", "verify_witness", "search_iso",
                "certify", "duality_graph"),
    "catalog": ("load_catalog", "row_source", "row_target", "row_witness"),
    "cli": ("main",),
}

# Methods too hot for a span; only their calls are counted.
COUNTED = {
    "scalar.mul": ("scalar", "CycScalar", "__mul__"),
    "scalar.inverse": ("scalar", "CycScalar", "inverse"),
    "scalar.add": ("scalar", "CycScalar", "__add__"),
    "poly.mul": ("poly", "Poly", "__mul__"),
}

# Extra per-call measurements: `built` counts distinct objects a function
# returned and `distinct` distinct first arguments (their ratio to `calls` is
# the cache-hit ratio); `cells` sums rows x cols of the input matrix.
EXTRA = {
    "jacobian.quotient_algebra": ("built", lambda args, result: result),
    "orbifold.orbifold_algebra": ("built", lambda args, result: result),
    "jacobian.fingerprint": ("distinct", lambda args, result: args[0]),
    "linalg.rref": ("cells", lambda args, result:
                    len(args[0]) * len(args[0][0]) if args[0] else 0),
}

_STORES: list["_ThreadData"] = []
_IDS = itertools.count()
_THREADS = itertools.count()


class _ThreadData:
    """One thread's span stack, finished spans and call counters."""

    def __init__(self):
        self.thread = next(_THREADS)
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        _STORES.append(self)  # outlives the thread, unlike the local below


class _Local(threading.local):
    def __init__(self):
        self.data = _ThreadData()


_LOCAL = _Local()


def _spanned(name: str, fn):
    measure = EXTRA[name][1] if name in EXTRA else None
    wall, cpu = time.perf_counter, time.thread_time

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        store = _LOCAL.data
        stack = store.stack
        parent = stack[-1] if stack else -1
        sid = next(_IDS)
        stack.append(sid)
        failed = True
        result = None
        w0, c0 = wall(), cpu()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            c1, w1 = cpu(), wall()
            stack.pop()
            extra = measure(args, result) if measure is not None else None
            store.spans.append((sid, parent, name, w0, w1, c0, c1, failed, extra,
                                store.thread))

    return wrapper


def _counted(key: str, fn):
    def wrapper(*args):
        _LOCAL.data.counts[key] += 1
        return fn(*args)

    return wrapper


def install() -> None:
    """Wrap every listed function and patch every module that bound it."""
    import oja.cli  # noqa: F401  (imports every module of the package)

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "oja" or name.startswith("oja."))]
    for layer, names in SPANNED.items():
        home = sys.modules[f"oja.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapped = _spanned(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    for key, (layer, cls_name, method) in COUNTED.items():
        cls = getattr(sys.modules[f"oja.{layer}"], cls_name)
        setattr(cls, method, _counted(key, getattr(cls, method)))


def summarize(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """Flat per-function and per-layer metrics of one process.

    For a function: calls, failures (calls that raised), total_s (thread CPU
    time of its outermost spans, so recursion is not counted twice), self_s
    (span time minus the time of its child spans), and built / distinct /
    cells where tracked.  For a layer: self_s summed over its functions.
    """
    by_id = {s[0]: s for s in spans}
    child_cpu: Counter = Counter()
    for s in spans:
        if s[1] in by_id:
            child_cpu[s[1]] += s[6] - s[5]
    out: Counter = Counter({f"{k}.calls": v for k, v in counts.items()})
    identities: dict[str, set[int]] = {}
    for sid, parent, name, _w0, _w1, c0, c1, failed, extra, _thread in spans:
        layer = name.split(".", 1)[0]
        own = (c1 - c0) - child_cpu[sid]
        out[f"{name}.calls"] += 1
        out[f"{name}.failures"] += failed
        out[f"{name}.self_s"] += own
        out[f"{layer}.self_s"] += own
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            out[f"{name}.total_s"] += c1 - c0
        if name not in EXTRA or failed:
            continue
        kind = EXTRA[name][0]
        if kind == "cells":
            out[f"{name}.cells"] += extra
        else:
            identities.setdefault(f"{name}.{kind}", set()).add(id(extra))
    for key, ids in identities.items():
        out[key] = len(ids)
    return dict(out)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- ARGV...", file=sys.stderr)
        return 2
    out_path, cli_argv = Path(argv[0]), argv[2:]
    install()
    import oja.cli

    origin = time.perf_counter()
    status = oja.cli.main(cli_argv)
    sys.stdout.flush()
    spans = sorted((s for store in _STORES for s in store.spans), key=lambda s: s[0])
    counts = sum((store.counts for store in _STORES), Counter())
    summary = summarize(spans, counts)
    out_path.write_text(json.dumps({
        "status": status,
        "summary": summary,
        "spans": [{"id": sid, "parent": parent, "name": name, "thread": thread,
                   "start_s": w0 - origin, "end_s": w1 - origin,
                   "cpu_s": c1 - c0, "failed": failed}
                  for sid, parent, name, w0, w1, c0, c1, failed, _extra, thread
                  in spans],
    }))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
