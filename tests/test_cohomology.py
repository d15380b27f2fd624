"""Exact Betti numbers, cocycle/coboundary tests, representatives."""
import importlib
import json
from fractions import Fraction
from math import comb

import pytest

from helpers import NON_JACOBI_DOC, doubled_odd_form, mono, representatives_by_rank
from superquad import build, catalog_keys
from superquad.algebra import GradedBasis, LieSuperalgebra
from superquad.cochains import Cochain, Monomial, associated_three_form, monomials_of_degree
from superquad.cohomology import (
    CochainBasis,
    CohomologyResult,
    betti_table,
    class_vector,
    cochain_basis,
    cochain_dimension,
    cohomology,
    cohomology_report,
    differential_matrix,
    is_coboundary,
    is_cocycle,
)
from superquad.errors import InputError, ResourceLimitError
from superquad.quadratic import validate_quadratic
from superquad.serialization import loads


def test_cochain_dimension_matches_enumeration():
    cases = [
        build("g_4_1_s").basis,  # 2 even, 2 odd
        build("g_6_1").basis,  # 6 even, 0 odd
        GradedBasis(labels=("u", "v", "w"), parities=(1, 1, 1)),  # 0 even
    ]
    for basis in cases:
        for k in range(0, 6):
            assert cochain_dimension(basis, k) == len(
                monomials_of_degree(basis, k)
            )


def test_cochain_dimension_closed_forms():
    # purely even: binomials, zero beyond the dimension
    b = build("g_6_1").basis
    assert [cochain_dimension(b, k) for k in range(8)] == [
        comb(6, k) for k in range(8)
    ]
    # purely odd: multiset coefficients grow without bound
    odd = GradedBasis(labels=("u", "v"), parities=(1, 1))
    assert [cochain_dimension(odd, k) for k in range(5)] == [1, 2, 3, 4, 5]


def test_differential_matrices_compose_to_zero():
    q = build("g_6_s")
    for k in range(0, 4):
        dk = differential_matrix(q, k)
        dk1 = differential_matrix(q, k + 1)
        rows, cols = dk1.shape[0], dk.shape[1]
        for i in range(rows):
            for j in range(cols):
                acc = Fraction(0)
                for t in range(dk.shape[0]):
                    acc += dk1.entries[i][t] * dk.entries[t][j]
                assert acc == 0


def test_rank_nullity_consistency():
    q = build("g_4_2_s")
    results = betti_table(q, 3)
    for k, r in enumerate(results):
        assert r.dim_cocycles + differential_matrix(q, k).rank() == r.dim_cochains
        if k > 0:
            assert r.dim_coboundaries == differential_matrix(q, k - 1).rank()
        assert r.betti == r.dim_cocycles - r.dim_coboundaries


def test_is_cocycle_and_is_coboundary():
    q = build("g_4_1_s")
    # delta of anything is a cocycle and a coboundary
    from superquad.cochains import differential_direct

    c = mono(q.basis, odd_labels=("X1", "X1"))
    dc = differential_direct(q.algebra, c)
    assert not dc.is_zero
    assert is_cocycle(q, dc)
    assert is_coboundary(q, dc)
    # a degree-1 closed dual that is not exact
    y0 = mono(q.basis, even_labels=("Y0",))
    assert is_cocycle(q, y0)
    assert not is_coboundary(q, y0)
    # zero cochain is a coboundary by convention
    assert is_coboundary(q, Cochain.zero(q.basis))
    # mixed-degree input is rejected
    mixed = y0 + c
    with pytest.raises(InputError):
        is_coboundary(q, mixed)


def test_class_vector_separates_classes():
    q = build("g_4_1_s")
    res = cohomology(q, 2)
    assert res.betti == 2
    r0, r1 = res.representatives
    v0 = class_vector(q, r0, result=res)
    v1 = class_vector(q, r1, result=res)
    assert v0 == [Fraction(1), Fraction(0)]
    assert v1 == [Fraction(0), Fraction(1)]
    combo = r0 + r1.scale(Fraction(3))
    assert class_vector(q, combo, result=res) == [Fraction(1), Fraction(3)]
    # shifting by a coboundary does not move the class
    from superquad.cochains import differential_direct

    shift = differential_direct(q.algebra, mono(q.basis, odd_labels=("X1",)))
    assert not shift.is_zero
    assert class_vector(q, combo + shift, result=res) == [
        Fraction(1),
        Fraction(3),
    ]
    # non-cocycles are rejected
    with pytest.raises(InputError):
        class_vector(q, mono(q.basis, even_labels=("X0",)), result=None)


def test_representatives_are_honest():
    for key in ("g_4_1_s", "g_6_s", "g_6_1"):
        q = build(key)
        for r in betti_table(q, 3):
            assert len(r.representatives) == r.betti
            for rep in r.representatives:
                assert is_cocycle(q, rep)
                if r.degree > 0:
                    assert not is_coboundary(q, rep)


def test_representatives_match_the_rank_oracle():
    cases = [(key, k) for key in catalog_keys() for k in range(3)]
    cases.append(("g_8_2_5_s", 3))
    for key, k in cases:
        q = build(key)
        d_k = differential_matrix(q, k, verify=False)
        d_prev = differential_matrix(q, k - 1, verify=False) if k else None
        res = cohomology(q, k, d_k=d_k, d_prev=d_prev)
        got = [d_k.source.coordinates(r) for r in res.representatives]
        assert got == representatives_by_rank(d_k, d_prev), (key, k)
        for i, rep in enumerate(res.representatives):
            unit = [Fraction(int(j == i)) for j in range(res.betti)]
            assert class_vector(q, rep, result=res) == unit, (key, k, i)


def _foreign_cochain():
    # s(T1) over the 6-dimensional basis: letter 5 is not in g_4_1_s
    return Cochain.from_terms(
        build("g_6_s").basis, {Monomial(even=(), odd=(5,)): Fraction(1)}
    )


def test_is_cocycle_rejects_a_cochain_over_another_basis():
    with pytest.raises(InputError):
        is_cocycle(build("g_4_1_s"), _foreign_cochain())


def test_is_coboundary_rejects_a_cochain_over_another_basis():
    with pytest.raises(InputError):
        is_coboundary(build("g_4_1_s"), _foreign_cochain())


def test_class_vector_rejects_a_cochain_over_another_basis():
    q = build("g_4_1_s")
    with pytest.raises(InputError):
        class_vector(q, _foreign_cochain(), result=cohomology(q, 1))


def test_class_vector_rejects_a_result_of_another_degree():
    q = build("g_4_1_s")
    rep = cohomology(q, 2).representatives[0]
    with pytest.raises(InputError):
        class_vector(q, rep, result=cohomology(q, 1))


def test_class_vector_rejects_a_result_over_another_basis():
    q = build("g_4_1_s")
    rep = cohomology(q, 2).representatives[0]
    with pytest.raises(InputError):
        class_vector(q, rep, result=cohomology(build("g_6_s"), 2))


def test_class_vector_rejects_a_result_not_from_cohomology():
    # a result assembled by hand carries no quotient to read the class from
    q = build("g_4_1_s")
    res = cohomology(q, 2)
    rep = res.representatives[0]
    bare = CohomologyResult(
        degree=2,
        dim_cochains=res.dim_cochains,
        dim_cocycles=res.dim_cocycles,
        dim_coboundaries=res.dim_coboundaries,
        betti=res.betti,
        representatives=res.representatives,
    )
    assert bare == res
    with pytest.raises(InputError):
        class_vector(q, rep, result=bare)


def test_api_rejects_a_bracket_that_fails_jacobi():
    g = loads(json.dumps(NON_JACOBI_DOC))
    with pytest.raises(InputError, match="super Jacobi"):
        betti_table(g, 3)
    with pytest.raises(InputError, match="super Jacobi"):
        cohomology(g, 2)


def test_api_rejects_a_form_that_is_not_invariant():
    q = doubled_odd_form()
    assert {v.rule for v in validate_quadratic(q).violations} == {"invariance"}
    with pytest.raises(InputError, match="not invariant"):
        associated_three_form(q)
    with pytest.raises(InputError, match="not invariant"):
        betti_table(q, 1)


def test_every_cohomology_entry_point_checks_the_size_first(monkeypatch):
    basis = GradedBasis(
        labels=tuple(f"u{i}" for i in range(30)), parities=(1,) * 30
    )
    g = LieSuperalgebra(basis=basis, constants={})
    assert cochain_dimension(basis, 6) == comb(35, 6) > 200000

    def no_elimination(*args, **kwargs):
        raise AssertionError("elimination started")

    # the package re-exports the function ``cohomology`` under the module's name
    module = importlib.import_module("superquad.cohomology")
    monkeypatch.setattr(module, "differential_matrix", no_elimination)
    monkeypatch.setattr(module, "nullspace", no_elimination)
    monkeypatch.setattr(module, "cochain_basis", no_elimination)
    monkeypatch.setattr(module, "monomials_of_degree", no_elimination)
    c = Cochain.from_terms(basis, {Monomial(even=(), odd=(0,) * 6): Fraction(1)})
    with pytest.raises(ResourceLimitError):
        cohomology(g, 6)
    with pytest.raises(ResourceLimitError):
        is_coboundary(g, c)
    with pytest.raises(ResourceLimitError):
        class_vector(g, c)
    with pytest.raises(ResourceLimitError):
        differential_matrix(g, 6)


def test_resource_limit_guard():
    q = build("g_8_2_5_s")
    with pytest.raises(ResourceLimitError):
        cohomology_report(q, 3, max_monomials=10)


def test_report_schema():
    r = cohomology_report(build("g_4_1_s"), 2)
    assert r["schema"] == 1
    assert r["kind"] == "cohomology"
    assert [row["betti"] for row in r["table"]] == [1, 2, 2]
    r2 = cohomology_report(
        build("g_4_1_s"), 2, include_representatives=False, name="demo"
    )
    assert all("representatives" not in row for row in r2["table"])
    assert r2["name"] == "demo"


def test_cochain_basis_coordinates_round_trip():
    basis = build("g_4_1_s").basis
    cb = cochain_basis(basis, 2)
    assert isinstance(cb, CochainBasis)
    c = Cochain.from_terms(
        basis,
        {
            Monomial(even=(0, 1), odd=()): Fraction(5),
            Monomial(even=(), odd=(2, 3)): Fraction(-1, 2),
        },
    )
    vec = cb.coordinates(c)
    back = cb.from_coordinates(basis, vec)
    assert (back - c).is_zero
