"""Acceptance suite: the twelve headline guarantees, at exact equality.

Each test prints one ``[PRIMARY nn] PASS/FAIL`` line (visible under ``-s`` or
in the failure output) and then asserts the guarantee.  All arithmetic is
exact, so every comparison is ``==`` — no tolerances anywhere.

A companion test at the end records the observed ``verify --all`` output in
full, so the one guarantee that cannot currently be met (criterion 9: a
Frobenius-level certificate for every row, including the two rows whose
pairing obstruction is fundamental) is documented next to what the tool
actually reports.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from oja.catalog import load_catalog, row_target, row_witness
from oja.duality import (duality_graph, source_algebra, verify_algebra_iso,
                         verify_frobenius_iso)
from oja.jacobian import milnor, quotient_algebra
from oja.orbifold import OrbifoldAlgebra, orbifold_algebra
from oja.poly import Poly, parse
from oja.scalar import CycScalar
from oja.symmetry import (GroupElement, build_invertible, max_symmetry_group,
                          same_up_to_variable_permutation, sl_subgroup,
                          transpose)

_VARS = ("x1", "x2", "x3")

# The seven reduced rows, in catalog order, with the dimension of the target
# orbifold algebra and the value of the trace on its one-dimensional socle.
_REDUCED_ROWS = (2, 3, 6, 7, 8, 12, 18)
_REDUCED_DIMS = (10, 11, 12, 11, 12, 12, 12)
_SOCLE_TRACES = (Fraction(1, 24), Fraction(1, 18), Fraction(1, 15),
                 Fraction(1, 16), Fraction(1, 12), Fraction(1, 12),
                 Fraction(1, 20))


def _report(criterion: int, passed: bool, detail: str) -> None:
    """Print the one-line verdict for a criterion, then assert it."""
    verdict = "PASS" if passed else "FAIL"
    print(f"[PRIMARY {criterion:02d}] {verdict}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@lru_cache(maxsize=None)
def _catalog():
    return load_catalog()


@lru_cache(maxsize=None)
def _graph():
    return duality_graph(_catalog())


@lru_cache(maxsize=None)
def _target_algebra(index: int) -> OrbifoldAlgebra:
    ip, group = row_target(_catalog().row(index))
    return orbifold_algebra(ip, group)


def _invertible(text: str):
    return build_invertible(parse(text, _VARS))


def _vec(algebra: OrbifoldAlgebra, mono: str, g: GroupElement):
    return algebra.element(parse(mono, _VARS), g)


def _unit(algebra: OrbifoldAlgebra, i: int):
    vec = algebra.zero_vector()
    vec[i] = CycScalar.one()
    return vec


def _vpow(algebra: OrbifoldAlgebra, vec, n: int):
    out = algebra.identity_vector()
    for _ in range(n):
        out = algebra.product(out, vec)
    return out


def _scaled(vec, q) -> list:
    s = CycScalar.from_rational(q)
    return [s * a for a in vec]


def _vadd(u, v) -> list:
    return [a + b for a, b in zip(u, v)]


def _is_zero_vec(vec) -> bool:
    return all(c.is_zero() for c in vec)


@pytest.fixture(scope="module")
def verify_all_run():
    """One shared `verify --all` subprocess run (it certifies all 20 rows)."""
    return subprocess.run(
        [sys.executable, "-m", "oja.cli", "verify", "--all"],
        capture_output=True, text=True)


def test_primary_01_catalog_transposes_match_up_to_renaming():
    catalog = _catalog()
    matched = 0
    for row in catalog.rows:
        listed = build_invertible(parse(row.f2_transpose, _VARS))
        variants = catalog.entry(row.f2_type).variants
        if any(same_up_to_variable_permutation(
                transpose(_invertible(v)).poly, listed.poly)
               for v in variants):
            matched += 1
    _report(1, matched == len(catalog.rows),
            f"{matched}/{len(catalog.rows)} rows: a computed variant "
            "transpose equals the listed polynomial up to renaming")


def test_primary_02_milnor_numbers_and_trace_normalizations():
    # Each line scales eta(v_id, [hess f] v_id) — which the trace axiom pins
    # to |G| * mu — down to the algebra's pairing constant.
    lines = (
        ("x1^8+x2^3+x3^2", 14, 2, Fraction(1, 672), Fraction(1, 24)),
        ("x1^4+x2^3+x1*x3^2", 10, 1, Fraction(1, 240), Fraction(1, 24)),
        ("x1^3*x2+x2^3+x1*x3^2", 11, 1, Fraction(1, 198), Fraction(1, 18)),
        ("x1^5+x2^3+x1*x3^2", 12, 1, Fraction(4, 720), Fraction(1, 15)),
        ("x1^4+x2^2*x3+x1*x3^2", 11, 1, Fraction(1, 176), Fraction(1, 16)),
        ("x1^4+x2^3+x3^3", 12, 1, Fraction(3, 432), Fraction(1, 12)),
        ("x1^5+x2^4+x3^2", 12, 1, Fraction(16, 8 * 480), Fraction(1, 20)),
    )
    failures = []
    for text, mu, group_order, prefactor, value in lines:
        ip = _invertible(text)
        if milnor(ip.poly) != mu:
            failures.append(f"mu({text}) != {mu}")
            continue
        if group_order == 1:
            algebra = source_algebra(ip)
        else:
            group = sl_subgroup(max_symmetry_group(ip))
            if group.order != group_order:
                failures.append(f"SL group of {text} has order {group.order}")
                continue
            algebra = orbifold_algebra(ip, group)
        qa = quotient_algebra(ip.poly, ip.weights, ip.degree)
        eta = algebra.pairing(
            algebra.identity_vector(),
            algebra.element(qa.hess_nf, GroupElement.identity(3)))
        if eta != CycScalar.from_rational(group_order * mu):
            failures.append(f"eta for {text}: got {eta}")
        elif prefactor * (group_order * mu) != value:
            failures.append(f"normalization for {text}: "
                            f"{prefactor * (group_order * mu)} != {value}")
    _report(2, not failures,
            "seven Milnor numbers and trace normalizations "
            "eta(v_id, [hess f] v_id) = |G|*mu, scaled to "
            "1/24, 1/24, 1/18, 1/15, 1/16, 1/12, 1/20"
            + ("" if not failures else f"; failures: {failures}"))


def test_primary_03_u12_transposes_milnor_and_symmetry_orders():
    variants = _catalog().entry("U12").variants
    transposes = [transpose(_invertible(v)) for v in variants]
    mus = sorted(milnor(tp.poly) for tp in transposes)
    orders = sorted(sl_subgroup(max_symmetry_group(tp)).order
                    for tp in transposes)
    _report(3, mus == [12, 12, 15] and orders == [1, 2, 3],
            f"U12 variant transposes: Milnor numbers {mus}, "
            f"special-linear group orders {orders}")


def test_primary_04_special_linear_groups_match_catalog():
    matched = 0
    rows = _catalog().rows
    for row in rows:
        ip, listed = row_target(row)
        computed = sl_subgroup(max_symmetry_group(ip))
        if {g.phases for g in computed} == {g.phases for g in listed}:
            matched += 1
    _report(4, matched == len(rows),
            f"{matched}/{len(rows)} rows: computed special-linear symmetry "
            "group equals the listed one as a set of phase tuples")


def test_primary_05_orbifold_dimensions():
    dims = tuple(_target_algebra(i).dim for i in _REDUCED_ROWS)
    _report(5, dims == _REDUCED_DIMS,
            f"orbifold algebra dimensions for rows {_REDUCED_ROWS} "
            f"are {dims}")


def test_primary_06_twisted_sector_products():
    # (row, power of the generator in the second factor, coefficient,
    #  monomial): v_g ∘ v_{g^k} = coeff * [mono] v_id.
    products = (
        (2, 1, 16, "x1^6"),
        (3, 1, 12, "x1^4*x2"),
        (6, 1, 10, "x1^3*x2"),
        (7, 1, 8, "x1*x2^2"),
        (8, 2, 9, "x2*x3"),
        (12, 1, 6, "x2*x3"),
        (18, 1, 8, "x2^2"),
    )
    failures = []
    for index, power, coeff, mono in products:
        algebra = _target_algebra(index)
        g = GroupElement.parse(_catalog().row(index).generator)
        lhs = algebra.product(_vec(algebra, "1", g),
                              _vec(algebra, "1", g ** power))
        rhs = _scaled(_vec(algebra, mono, GroupElement.identity(3)), coeff)
        if lhs != rhs:
            failures.append(f"row {index}: v_g * v_g^{power} is "
                            f"{algebra.vector_str(lhs)}")
    _report(6, not failures,
            "twisted-sector products v_g*v_g^k equal 16[x1^6], 12[x1^4*x2], "
            "10[x1^3*x2], 8[x1*x2^2], 9[x2*x3], 6[x2*x3], 8[x2^2] v_id"
            + ("" if not failures else f"; failures: {failures}"))


def test_primary_07_generator_relations():
    checks = []
    identity = GroupElement.identity(3)

    # Row 2: 16*([x1^2] v_id)^3 = v_g^2.
    alg2 = _target_algebra(2)
    g2 = GroupElement.parse(_catalog().row(2).generator)
    lhs = _scaled(_vpow(alg2, _vec(alg2, "x1^2", identity), 3), 16)
    rhs = _vpow(alg2, _vec(alg2, "1", g2), 2)
    checks.append(("16([x1^2]v)^3 = v_g^2", lhs == rhs))

    # Row 6: the relation holds with + 5, and provably fails with - 5
    # (the sign this relation is commonly quoted with); both facts are
    # asserted so the corrected sign stays pinned down.
    alg6 = _target_algebra(6)
    g6 = GroupElement.parse(_catalog().row(6).generator)
    vg_sq = _vpow(alg6, _vec(alg6, "1", g6), 2)
    y4 = _vpow(alg6, _vec(alg6, "x1^2", identity), 4)
    corrected = _vadd(vg_sq, _scaled(y4, 5))
    quoted = _vadd(vg_sq, _scaled(y4, -5))
    checks.append(("v_g^2 + 5([x1^2]v)^4 = 0", _is_zero_vec(corrected)))
    checks.append(("v_g^2 - 5([x1^2]v)^4 != 0", not _is_zero_vec(quoted)))

    # Row 18: ([x1] v_id)^4 = 0 and v_g^3 = 0.
    alg18 = _target_algebra(18)
    g18 = GroupElement.parse(_catalog().row(18).generator)
    checks.append(("([x1]v)^4 = 0",
                   _is_zero_vec(_vpow(alg18, _vec(alg18, "x1", identity), 4))))
    checks.append(("v_g^3 = 0",
                   _is_zero_vec(_vpow(alg18, _vec(alg18, "1", g18), 3))))

    failed = [name for name, ok in checks if not ok]
    _report(7, not failed,
            "generator relations hold (with the corrected +5 sign in the "
            "row-6 relation; the -5 form fails as expected)"
            + ("" if not failed else f"; failures: {failed}"))


def test_primary_08_embedded_witnesses_and_pairing_values():
    failures = []
    for index, value in zip(_REDUCED_ROWS, _SOCLE_TRACES):
        row = _catalog().row(index)
        witness = row_witness(row)
        if witness is None:
            failures.append(f"row {index}: no embedded witness")
            continue
        algebra_report = verify_algebra_iso(witness)
        frobenius_report = verify_frobenius_iso(witness)
        if not algebra_report.passed:
            failures.append(f"row {index}: {algebra_report.failure()}")
        if not frobenius_report.passed:
            failures.append(f"row {index}: {frobenius_report.failure()}")
        algebra = _target_algebra(index)
        supported = [i for i in range(algebra.dim)
                     if not algebra.trace(_unit(algebra, i)).is_zero()]
        if len(supported) != 1:
            failures.append(f"row {index}: trace supported on {supported}")
        elif algebra.trace(_unit(algebra, supported[0])) != \
                CycScalar.from_rational(value):
            failures.append(f"row {index}: socle trace is not {value}")
    _report(8, not failures,
            "seven embedded witnesses pass algebra and Frobenius "
            "verification; socle traces are 1/24, 1/18, 1/15, 1/16, 1/12, "
            "1/12, 1/20" + ("" if not failures else f"; failures: {failures}"))


def test_primary_09_cli_certifies_all_rows(verify_all_run):
    out = verify_all_run.stdout
    frobenius_line = "20/20 rows certified at Frobenius level"
    passed = verify_all_run.returncode == 0 and frobenius_line in out
    summary = next((line for line in out.splitlines()
                    if "rows certified" in line), "<no summary line>")
    _report(9, passed,
            "verify --all certifies every row at Frobenius level with exit "
            f"code 0 (observed: exit {verify_all_run.returncode}, "
            f"'{summary}'; for rows 19 and 20 the ansatz search found no "
            "pairing-compatible witness, so they stop at algebra level — see "
            "test_verify_all_observed_output)")


def test_primary_10_isomorphism_graph_shape():
    graph = _graph()
    sizes = graph.component_sizes()
    _report(10, sizes == [2, 2, 2, 3, 3, 3, 4, 4] and len(graph.edges) == 24,
            f"graph has component sizes {sizes} and {len(graph.edges)} edges")


def test_primary_11_property_suites_and_oracles():
    here = Path(__file__).resolve().parent
    anchors = {
        "test_scalar.py": ("test_field_axioms_on_random_triples",
                           "test_json_round_trip"),
        "test_poly.py": ("test_euler_identity_for_weighted_homogeneous_polynomials",
                         "test_leibniz_rule"),
        "test_jacobian.py": ("test_groebner_spolynomials_reduce_to_zero",
                             "test_socle_annihilated_by_every_variable",
                             "test_milnor_numbers",
                             "test_milnor_brieskorn_pham"),
        "test_orbifold.py": ("test_identity_is_two_sided_unit",
                             "test_products_are_graded_commutative",
                             "test_products_are_associative",
                             "test_parity_is_additive_on_products",
                             "test_frobenius_identity_and_gram_shape"),
    }
    missing = [f"{name}:{anchor}"
               for name, wanted in anchors.items()
               for anchor in wanted
               if anchor not in (here / name).read_text()]

    # Representative spot checks of the properties those suites cover.
    samples = []
    a = CycScalar.zeta(1) + CycScalar.from_rational(Fraction(1, 2))
    b = CycScalar.zeta(5)
    c = CycScalar.zeta(9) + CycScalar.one()
    samples.append(("scalar distributivity",
                    (a + b) * c == a * c + b * c))
    samples.append(("scalar inverse", a * a.inverse() == CycScalar.one()))
    samples.append(("scalar round trip",
                    CycScalar.from_json(a.to_json()) == a))

    ip = _invertible("x1^5+x2^3+x1*x3^2")
    f = ip.poly
    euler = Poly.zero(_VARS)
    for i, w in enumerate(ip.weights):
        xi = Poly.monomial(_VARS, tuple(1 if j == i else 0 for j in range(3)))
        euler = euler + (xi * f.partial_derivative(i)).scale(
            CycScalar.from_rational(w))
    samples.append(("Euler identity",
                    euler == f.scale(CycScalar.from_rational(ip.degree))))
    g = parse("x1*x2+x3^2", _VARS)
    samples.append(("Leibniz rule",
                    (f * g).partial_derivative(2)
                    == f.partial_derivative(2) * g
                    + f * g.partial_derivative(2)))

    qa = quotient_algebra(ip.poly, ip.weights, ip.degree)
    socle = Poly.monomial(_VARS, qa.socle)
    xi_monos = [Poly.monomial(_VARS, tuple(1 if j == i else 0
                                           for j in range(3)))
                for i in range(3)]
    samples.append(("socle annihilation",
                    all(qa.normal_form(socle * xi).is_zero()
                        for xi in xi_monos)))
    weight_formula = 1
    for w in ip.weights:
        weight_formula *= Fraction(ip.degree - w, w)
    samples.append(("Milnor weight formula", weight_formula == qa.mu))
    samples.append(("Brieskorn-Pham Milnor number",
                    milnor(parse("x1^3+x2^4+x3^5", _VARS)) == 2 * 3 * 4))

    algebra = _target_algebra(2)
    triples = ((0, 1, 2), (1, 4, 7), (3, 5, 9))
    assoc = all(
        algebra.product(algebra.product(_unit(algebra, i), _unit(algebra, j)),
                        _unit(algebra, k))
        == algebra.product(_unit(algebra, i),
                           algebra.product(_unit(algebra, j),
                                           _unit(algebra, k)))
        for i, j, k in triples)
    frobenius = all(
        algebra.pairing(algebra.product(_unit(algebra, i),
                                        _unit(algebra, j)),
                        _unit(algebra, k))
        == algebra.pairing(_unit(algebra, i),
                           algebra.product(_unit(algebra, j),
                                           _unit(algebra, k)))
        for i, j, k in triples)
    commutes = all(
        algebra.product(_unit(algebra, i), _unit(algebra, j))
        == _scaled(algebra.product(_unit(algebra, j), _unit(algebra, i)),
                   (-1) ** (algebra.parities[i] * algebra.parities[j]))
        for i, j, _ in triples)
    samples.append(("orbifold associativity", assoc))
    samples.append(("Frobenius identity", frobenius))
    samples.append(("graded commutativity", commutes))

    failed = [name for name, ok in samples if not ok]
    _report(11, not missing and not failed,
            "property suites present and representative laws re-checked "
            "(field axioms, round trips, Euler, Leibniz, socle annihilation, "
            "two Milnor oracles, associativity, Frobenius, commutativity)"
            + ("" if not missing else f"; missing: {missing}")
            + ("" if not failed else f"; failed: {failed}"))


def test_primary_12_fingerprints_separate_families():
    graph = _graph()
    rep_by_dim = {graph.fingerprints[label].dim: label
                  for label in ("A", "U", "D")}
    separated = (
        sorted(rep_by_dim) == [10, 11, 12]
        and graph.fingerprints["A"] != graph.fingerprints["U"]
        and graph.fingerprints["A"] != graph.fingerprints["D"]
        and graph.fingerprints["U"] != graph.fingerprints["D"]
    )
    comparisons = graph.fingerprint_comparisons()
    pairs = {(a, b) for a, b, _ in comparisons}
    all_dim12 = all(graph.fingerprints[a].dim == 12
                    and graph.fingerprints[b].dim == 12
                    for a, b, _ in comparisons)
    equal_pairs = {(a, b) for a, b, eq in comparisons if eq}
    reported = (
        len(comparisons) == 6
        and all_dim12
        and pairs == {("D", "G"), ("D", "J"), ("D", "O"),
                      ("G", "J"), ("G", "O"), ("J", "O")}
        and equal_pairs == {("D", "J")}
    )
    _report(12, separated and reported,
            "fingerprints separate the dim-10/11/12 families; the six "
            "dim-12 comparisons are reported with exactly one equal pair "
            "(reported evidence only, not a non-isomorphism proof)")


def test_verify_all_observed_output(verify_all_run):
    """Record the actual `verify --all` behaviour, row by row.

    Rows 19 and 20 carry algebra-level certificates only: every algebra
    isomorphism in the ansatz family fails the pairing check, which is why
    the summary reports 18/20 and the exit code is 1.
    """
    out = verify_all_run.stdout
    assert verify_all_run.returncode == 1
    assert "18/20 rows certified at Frobenius level" in out
    assert "algebra level only: 19 20" in out
    row_lines = [line for line in out.splitlines()
                 if line.startswith("row ")]
    assert len(row_lines) == 20
    assert [line.split()[1].rstrip(":") for line in row_lines] \
        == [str(i) for i in range(1, 21)]
    for line in row_lines[:18]:
        assert " frobenius (" in line
    for line in row_lines[18:]:
        assert " algebra (ansatz search)" in line
