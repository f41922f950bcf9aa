"""Witness verification: pinned failure reports, the counit verdict, call counts.

The reports under ``tests/reports`` were captured from the code that built
the full pairing table for every witness; they pin the failure text (the
first four ``eta(a, b): got != expected`` lines and the ``... N pairs
differ`` tail) byte for byte.  The verdict test recomputes every pairing
with a naive evaluator that shares no code with ``duality`` beyond the
target's product and pairing.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from oja import duality
from oja.catalog import load_catalog, row_source, row_target, row_witness
from oja.duality import (IsoWitness, certify, evaluate_in_target, search_iso,
                         source_algebra, verify_frobenius_iso, verify_witness)
from oja.orbifold import OrbifoldAlgebra, orbifold_algebra
from oja.poly import Poly
from oja.scalar import CycScalar

REPORTS = Path(__file__).parent / "reports"


@lru_cache(maxsize=None)
def _catalog():
    return load_catalog()


def _target(row) -> OrbifoldAlgebra:
    ip, group = row_target(row)
    return orbifold_algebra(ip, group)


def _fresh(w: IsoWitness) -> IsoWitness:
    """An equal witness with nothing computed on it yet."""
    return IsoWitness(w.source, w.target, w.images)


def _rescaled(w: IsoWitness) -> IsoWitness:
    """x_i -> 2^(w_i)·φ(x_i): the relations still hold, the pairing does not."""
    images = tuple({k: CycScalar.from_rational(2 ** weight) * c for k, c in image.items()}
                   for weight, image in zip(w.source.weights, w.images))
    return IsoWitness(w.source, w.target, images)


@lru_cache(maxsize=None)
def _certificates():
    """The witnesses `verify --all` certifies, by row index."""
    return {row.index: certify(row_source(row), _target(row), row_witness(row))
            for row in _catalog().rows}


def _unscaled_twisted(index: int) -> IsoWitness:
    """The row's witness with its twisted image replaced by a bare [1]v_g."""
    w = row_witness(_catalog().row(index))
    g = next(g for g in w.target.group if not g.is_identity())
    one = Poly.constant(w.source.vars, CycScalar.one())
    return IsoWitness(w.source, w.target,
                      w.images[:-1] + (w.target.element(one, g),))


def _algebra_witness(index: int) -> IsoWitness:
    row = _catalog().row(index)
    return search_iso(row_source(row), _target(row), require_frobenius=False)


# --- pinned failure reports ----------------------------------------------------

_PINNED = {
    "row2_rescaled": lambda: _rescaled(row_witness(_catalog().row(2))),
    "row8_rescaled": lambda: _rescaled(row_witness(_catalog().row(8))),
    "row19_algebra_search": lambda: _algebra_witness(19),
    "row20_algebra_search": lambda: _algebra_witness(20),
    "row2_unscaled_twisted": lambda: _unscaled_twisted(2),  # relations fail too
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_pairing_failure_report_matches_pinned_text(name):
    report = verify_witness(_PINNED[name]())
    text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    assert text == (REPORTS / f"{name}.json").read_text(encoding="utf-8")


# --- the counit verdict against the full pairing table ---------------------------


def _naive_image(w: IsoWitness, m) -> dict[int, CycScalar]:
    """φ(x₁)^m₁ ⋯ φ(xₙ)^mₙ, one factor at a time from the unit."""
    vector = w.target.identity_vector()
    for i, e in enumerate(m):
        for _ in range(e):
            vector = w.target.product(vector, w.images[i])
    return vector


def _naive_evaluate(w: IsoWitness, p: Poly) -> dict[int, CycScalar]:
    out: dict[int, CycScalar] = {}
    for m, coeff in p.terms.items():
        for k, b in _naive_image(w, m).items():
            out[k] = out.get(k, CycScalar.zero()) + coeff * b
    return {k: c for k, c in out.items() if not c.is_zero()}


def _table_verdict(w: IsoWitness) -> bool:
    """η_T(φbᵢ, φbⱼ) = η_S(bᵢ, bⱼ) on every pair of source basis elements."""
    src = source_algebra(w.source)
    phi = [_naive_image(w, m) for _, m in src.basis]
    return all(w.target.pairing(phi[i], phi[j]) == src.gram[i].get(j, CycScalar.zero())
               for i in range(src.dim) for j in range(i, src.dim))


_FROBENIUS_ROWS = tuple(range(1, 19))


def _verdict_cases():
    cases = [(f"row{i}", i, False, True) for i in _FROBENIUS_ROWS]
    cases += [(f"row{i}-rescaled", i, True, False) for i in _FROBENIUS_ROWS]
    cases += [(f"row{i}-algebra", i, False, False) for i in (19, 20)]
    return cases


@pytest.mark.parametrize("name, index, rescale, expected", _verdict_cases(),
                         ids=[case[0] for case in _verdict_cases()])
def test_counit_verdict_equals_the_pairing_table_verdict(name, index, rescale, expected):
    cert = _certificates()[index]
    assert cert.level == ("frobenius" if index in _FROBENIUS_ROWS else "algebra")
    w = _rescaled(cert.witness) if rescale else _fresh(cert.witness)
    verdict = verify_frobenius_iso(w).passed
    assert verdict == _table_verdict(w) == expected


# --- call counts ----------------------------------------------------------------


def _row2_witness() -> IsoWitness:
    w = _fresh(row_witness(_catalog().row(2)))
    source_algebra(w.source)  # built outside the counted region
    return w


def _peeled(m):
    """m and each monomial reached from it by dividing off its last variable,
    down to degree 2: the products the monomial table spends on m."""
    while sum(m) > 1:
        yield m
        k = max(i for i, e in enumerate(m) if e)
        m = m[:k] + (m[k] - 1,) + m[k + 1:]


def test_verify_witness_builds_the_image_matrix_once(monkeypatch):
    """One monomial table per witness; the relations and the image matrix read it."""
    calls = []

    class CountingTable(duality._ImageTable):
        def __init__(self, *args):
            calls.append(args)
            super().__init__(*args)

    monkeypatch.setattr(duality, "_ImageTable", CountingTable)
    report = verify_witness(_row2_witness())
    assert report.passed, report.failure()
    assert len(calls) == 1


@pytest.mark.parametrize("index", [1, 19])  # searched at Frobenius level; 19 falls back
def test_certify_runs_each_check_once_per_searched_witness(monkeypatch, index):
    """`certify` reads the reports `search_iso` made instead of checking again."""
    calls = []  # holds every witness, so no two of them share an id
    for name in ("verify_algebra_iso", "verify_frobenius_iso"):
        def counting(w, original=getattr(duality, name), name=name):
            calls.append((name, w))
            return original(w)

        monkeypatch.setattr(duality, name, counting)
    row = _catalog().row(index)
    assert row_witness(row) is None
    cert = certify(row_source(row), _target(row))
    counts = Counter((name, id(w)) for name, w in calls)
    assert max(counts.values()) == 1
    assert counts[("verify_algebra_iso", id(cert.witness))] == 1
    assert counts[("verify_frobenius_iso", id(cert.witness))] == (index == 1)
    assert cert.report.passed


def test_image_matrix_takes_one_product_per_basis_element_besides_the_unit(monkeypatch):
    w = _row2_witness()
    expected = [_naive_image(w, m) for _, m in source_algebra(w.source).basis]
    calls = []
    original = OrbifoldAlgebra.product

    def counting_product(self, u, v):
        calls.append((u, v))
        return original(self, u, v)

    monkeypatch.setattr(OrbifoldAlgebra, "product", counting_product)
    matrix = w.image_matrix
    # The unit and the variables are table seeds and take no product.
    assert len(calls) == sum(1 for _, m in source_algebra(w.source).basis if sum(m) > 1)
    assert list(matrix) == expected


def test_evaluate_in_target_never_multiplies_by_the_unit(monkeypatch):
    w = _row2_witness()
    target = w.target
    vars = w.source.vars
    polys = [w.source.poly.partial_derivative(i) for i in range(w.source.arity)]
    polys += [Poly.monomial(vars, m) for _, m in source_algebra(w.source).basis]
    polys.append(w.source.poly + Poly.constant(vars, CycScalar.from_rational(3)))
    expected = [_naive_evaluate(w, p) for p in polys]
    operands = []
    original = OrbifoldAlgebra.product

    def recording_product(self, u, v):
        operands.extend((dict(u), dict(v)))
        return original(self, u, v)

    monkeypatch.setattr(OrbifoldAlgebra, "product", recording_product)
    table = duality._ImageTable(target, w.images)
    values = [evaluate_in_target(table, p) for p in polys]
    assert values == expected
    assert operands
    assert target.identity_vector() not in operands
    # One product per monomial of degree 2 or more, each stored once.
    assert len(operands) == 2 * len({d for p in polys for m in p.terms for d in _peeled(m)})


def test_pairing_equations_read_the_gram_matrix(monkeypatch):
    """The ansatz's pairing equations take no products beyond its image matrix,
    and the image matrix none for monomials the relations already took."""
    row = _catalog().row(2)
    source, target = row_source(row), _target(row)
    basis = source_algebra(source).basis  # built outside the counted region
    calls = []
    original = OrbifoldAlgebra.product

    def counting_product(self, u, v):
        calls.append((u, v))
        return original(self, u, v)

    monkeypatch.setattr(OrbifoldAlgebra, "product", counting_product)
    monkeypatch.setattr(duality, "_solve_system", lambda *args: iter(()))
    counts = []
    for require_frobenius in (False, True):
        calls.clear()
        with pytest.raises(duality.SearchFailure):
            search_iso(source, target, require_frobenius=require_frobenius)
        counts.append(len(calls))
    relations = {d for i in range(source.arity)
                 for m in source.poly.partial_derivative(i).terms for d in _peeled(m)}
    assert counts[0] == len(relations)
    assert counts[1] - counts[0] == len({m for _, m in basis if sum(m) > 1} - relations)


# --- the ansatz through the witness evaluator ---------------------------------------


def _specialise(p: Poly, values) -> CycScalar:
    """p evaluated at u_t = values[t]."""
    total = CycScalar.zero()
    for exps, coeff in p.terms.items():
        for value, e in zip(values, exps):
            coeff = coeff * value**e
        total = total + coeff
    return total


def _ansatz_table(source, target):
    """The search's layout, one unknown u_t per slot, and the monomial table over them.

    Returns the layout, the zero of the coordinate ring Q(ζ₂₄)[u] and the table.
    """
    layout = [(i, k) for i, weight in enumerate(source.weights) for k in range(target.dim)
              if target.degrees[k] * source.degree == weight]
    ring = tuple(f"u{t}" for t in range(len(layout)))
    images: list[dict[int, Poly]] = [{} for _ in range(source.arity)]
    for t, (i, k) in enumerate(layout):
        images[i][k] = Poly.variable(ring, t)
    one = Poly.constant(ring, CycScalar.one())
    return layout, Poly.zero(ring), duality._ImageTable(target, images, one)


@pytest.mark.parametrize("index", [2, 8])
def test_ansatz_images_specialise_to_the_found_witness(index):
    """Poly coordinates through the monomial table, evaluate_in_target and the
    pairing, specialised at the search's solution, give the numeric values."""
    row = _catalog().row(index)
    w = search_iso(row_source(row), _target(row))
    source, target = w.source, w.target
    layout, zero, table = _ansatz_table(source, target)
    assert all((i, k) in layout for i, image in enumerate(w.images) for k in image)
    values = [w.images[i].get(k, CycScalar.zero()) for i, k in layout]

    def specialise(vector):
        out = {k: _specialise(p, values) for k, p in vector.items()}
        return {k: c for k, c in out.items() if not c.is_zero()}

    polys = [source.poly.partial_derivative(i) for i in range(source.arity)]
    polys.append(source.poly + Poly.constant(source.vars, CycScalar.from_rational(3)))
    for p in polys:
        assert (specialise(evaluate_in_target(table, p))
                == evaluate_in_target(w.table, p))
    phi = [table[m] for _, m in source_algebra(source).basis]
    assert [specialise(row) for row in phi] == list(w.image_matrix)
    for i, j in [(0, 0), (0, len(phi) - 1), (1, len(phi) - 2)]:
        expected = target.pairing(w.image_matrix[i], w.image_matrix[j])
        assert target.trace(specialise(target.product(phi[i], phi[j]))) == expected
        assert _specialise(target.pairing(phi[i], phi[j], zero), values) == expected


def test_trace_of_ansatz_products_stays_in_the_coordinate_ring():
    """`trace` returns the ring's zero off the socle, so every trace is a `Poly`."""
    row = _catalog().row(2)
    source, target = row_source(row), _target(row)
    _, zero, table = _ansatz_table(source, target)
    phi = [table[m] for _, m in source_algebra(source).basis]
    traces = [target.trace(target.product(a, b), zero) for a in phi for b in phi]
    assert len(traces) == 100
    assert all(isinstance(t, Poly) for t in traces)
