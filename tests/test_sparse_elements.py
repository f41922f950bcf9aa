"""Algebra elements are sparse coordinate dicts {basis index: nonzero coordinate}.

Two properties carry that format.  No element oja builds stores a zero
coordinate, so equal elements are equal dicts; and `product`, `trace` and
`pairing` on such dicts agree with a dense reference computed here from the
algebra's `structure` and `gram` alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oja import duality  # noqa: E402
from oja.catalog import load_catalog, row_source, row_target, row_witness  # noqa: E402
from oja.duality import certify, evaluate_in_target, source_algebra  # noqa: E402
from oja.jacobian import add_scaled  # noqa: E402
from oja.orbifold import orbifold_algebra  # noqa: E402
from oja.poly import Poly  # noqa: E402
from oja.scalar import CycScalar  # noqa: E402

_ZERO = CycScalar.zero()
_ONE = CycScalar.one()


@lru_cache(maxsize=None)
def _catalog():
    return load_catalog()


def _target(row):
    return orbifold_algebra(*row_target(row))


@lru_cache(maxsize=None)
def _algebras() -> tuple:
    """The row targets, the graph nodes and the row sources, by name."""
    cat = _catalog()
    named = [(f"row{row.index}", _target(row)) for row in cat.rows]
    named += [(f"node-{node.label}", orbifold_algebra(node.ip, node.group))
              for node in cat.graph_nodes]
    named += [(f"source{row.index}", source_algebra(row_source(row))) for row in cat.rows]
    return tuple(named)


@lru_cache(maxsize=None)
def _witnesses() -> tuple:
    """Every embedded witness and every searched one (rows 19/20 at algebra level)."""
    cat = _catalog()
    embedded = [row_witness(row) for row in cat.rows if row.witness is not None]
    searched = [certify(row_source(row), _target(row)).witness for row in cat.rows]
    return tuple(embedded + searched)


def _assert_sparse(vector) -> None:
    assert isinstance(vector, dict)
    assert all(vector.values()), f"stored zero in {vector}"


# --- no element stores a zero --------------------------------------------------


def test_witness_images_relation_images_and_image_matrix_store_no_zero():
    for w in _witnesses():
        for image in w.images:
            _assert_sparse(image)
        for _, value in w.relation_images:
            _assert_sparse(value)
        for row in w.image_matrix:
            _assert_sparse(row)


def test_relations_of_a_verified_witness_cancel_to_the_empty_dict():
    """A relation's image is a sum that cancels; the cancelled entries are deleted."""
    for w in _witnesses():
        assert w.algebra_report.passed
        assert all(value == {} for _, value in w.relation_images)


def test_scalar_products_store_no_zero():
    """Basis products, and the Gram rows read from them."""
    for _, A in _algebras():
        assert len(A.gram) == A.dim
        for i in range(A.dim):
            _assert_sparse(A.gram[i])
            for j in range(A.dim):
                _assert_sparse(A.product({i: _ONE}, {j: _ONE}))


@pytest.mark.parametrize("index", range(1, 21))
def test_polynomial_products_of_the_ansatz_store_no_zero(index):
    """The search's table with coordinates in Poly, built as `search_iso` builds it."""
    row = _catalog().row(index)
    source, target = row_source(row), _target(row)
    layout = [(i, k) for i, weight in enumerate(source.weights) for k in range(target.dim)
              if target.degrees[k] == Fraction(weight, source.degree)]
    ring = tuple(f"u{t}" for t in range(len(layout)))
    images: list[dict[int, Poly]] = [{} for _ in range(source.arity)]
    for t, (i, k) in enumerate(layout):
        images[i][k] = Poly.variable(ring, t)
    table = duality._ImageTable(target, images, Poly.constant(ring, _ONE))
    for _, m in source_algebra(source).basis:
        _assert_sparse(table[m])
    for i in range(source.arity):
        _assert_sparse(evaluate_in_target(table, source.poly.partial_derivative(i)))


@pytest.mark.parametrize("ring", [(), ("u0",)], ids=["scalar", "poly"])
def test_add_scaled_deletes_a_cancelled_coordinate(ring):
    c = Poly.variable(ring, 0) if ring else CycScalar.from_rational(3)
    out: dict = {}
    add_scaled(out, c, {0: _ONE, 2: CycScalar.zeta(1)})
    add_scaled(out, -c, {0: _ONE})
    assert out == {2: c * CycScalar.zeta(1)}
    add_scaled(out, -c, {2: CycScalar.zeta(1)})
    assert out == {}


# --- product, trace and pairing against a dense reference ------------------------


_fractions = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
_scalars = st.builds(lambda q, e: CycScalar.from_rational(q) * CycScalar.zeta(e),
                     _fractions, st.integers(0, 23))


def _elements(dim: int):
    return st.dictionaries(st.integers(0, dim - 1), _scalars, max_size=5)


def _dense(u: dict, dim: int) -> list[CycScalar]:
    return [u.get(i, _ZERO) for i in range(dim)]


def _dense_product(A, u: list[CycScalar], v: list[CycScalar]) -> list[CycScalar]:
    out = [_ZERO] * A.dim
    for (i, j), row in A.structure.items():
        for k, s in row.items():
            out[k] = out[k] + u[i] * v[j] * s
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_trace_and_pairing_match_the_dense_reference(data):
    name, A = data.draw(st.sampled_from(_algebras()), label="algebra")
    u, v = data.draw(_elements(A.dim), label="u"), data.draw(_elements(A.dim), label="v")
    du, dv, n = _dense(u, A.dim), _dense(v, A.dim), A.dim
    gram = [_dense(row, n) for row in A.gram]
    product = _dense_product(A, du, dv)
    assert A.product(u, v) == {k: c for k, c in enumerate(product) if c}, name
    # ε(u) = η(u, 1), one column of the Gram matrix.
    one = A.identity_index
    assert A.trace(u) == sum((du[a] * gram[a][one] for a in range(n)), _ZERO), name
    assert A.pairing(u, v) == sum((du[a] * dv[b] * gram[a][b]
                                   for a in range(n) for b in range(n)), _ZERO), name
