"""Exact Betti numbers, cocycle/coboundary tests, representatives."""
import gc
import importlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import comb
from types import SimpleNamespace
from weakref import ref

import pytest

from helpers import (
    NON_JACOBI_DOC,
    betti_table_unpruned,
    block_key,
    block_partition,
    built_by_filter,
    contract_vector,
    coordinates,
    delta_by_tuples,
    doubled_odd_form,
    enumerate_by_degree,
    from_coordinates,
    full_differential,
    is_coboundary_by_rank,
    is_coboundary_full,
    mono,
    representatives_by_rank,
)
from superquad import build, catalog_keys
from superquad.algebra import GradedBasis, LieSuperalgebra, diagonal_weights, inner_torus
from superquad.cli import main
from superquad.cochains import (
    DEGREE_LIMIT,
    Cochain,
    Monomial,
    _pack,
    _poisson,
    _unpack,
    associated_three_form,
    differential_direct,
    differential_via_poisson,
    monomials_of_degree,
    poisson_bracket,
    wedge,
)
from superquad.cohomology import (
    CochainBasis,
    CohomologyResult,
    Complex,
    _complex,
    _Quotient,
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
from superquad.errors import EngineError, InputError, ResourceLimitError
from superquad.extensions import is_skew_superderivation, one_dim_double_extension, skew_superderivation_space
from superquad.linalg import Echelon, _sparse_rows, rank
from superquad.quadratic import QuadraticLieSuperalgebra, validate_quadratic
from superquad.serialization import loads, save


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
        a, b = dk1.entries, dk.entries  # each access builds the dense view
        for i in range(rows):
            for j in range(cols):
                acc = Fraction(0)
                for t in range(dk.shape[0]):
                    acc += a[i][t] * b[t][j]
                assert acc == 0


def test_differential_columns_are_the_sparse_images():
    cases = [(key, k) for key in catalog_keys() for k in range(4)]
    cases.append(("g_8_2_5_s", 4))
    for key, k in cases:
        q = build(key)
        g = getattr(q, "algebra", q)  # some keys are not quadratic
        d = differential_matrix(q, k, verify=False)
        dense = d.entries
        assert len(d.columns) == d.shape[1] and len(dense) == d.shape[0]
        for j, m in enumerate(d.source.monomials):
            assert all(d.columns[j].values()), (key, k, m)
            image = dict(
                differential_direct(g, Cochain.from_terms(g.basis, {m: Fraction(1)})).terms
            )
            for i, target in enumerate(d.target.monomials):
                assert dense[i][j] == image.get(target, 0), (key, k, m, target)


def test_rank_nullity_consistency():
    q = build("g_4_2_s")
    results = betti_table(q, 3)
    for k, r in enumerate(results):
        assert r.dim_cocycles + rank(full_differential(q, k).columns) == r.dim_cochains
        if k > 0:
            assert r.dim_coboundaries == rank(full_differential(q, k - 1).columns)
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


def _sampled(g, rng: random.Random, monomials) -> Cochain:
    """Up to three of ``monomials`` with seeded coefficients."""
    picked = rng.sample(monomials, min(3, len(monomials)))
    return Cochain.from_terms(g.basis, {m: Fraction(rng.choice((-2, 1, 3))) for m in picked})


def _not_closed(g, monomials) -> Cochain:
    """The first of ``monomials``, as a cochain, whose delta is not 0."""
    for m in monomials:
        c = Cochain.from_terms(g.basis, {m: Fraction(1)})
        if not differential_direct(g, c).is_zero:
            return c
    raise AssertionError("every monomial is closed")


@pytest.mark.parametrize("key", catalog_keys())
def test_is_coboundary_agrees_with_the_full_delta_oracle(key):
    """Seeded coboundaries delta(b), alone, plus a random monomial of C^k,
    or plus a representative of H^k (never a coboundary).  With an inner
    torus, also delta(b) for b in the built part of C^{k-1}, plus delta of
    a cochain of nonzero inner weight (a coboundary) or plus a monomial of
    nonzero inner weight that is not closed (none)."""
    q = build(key)
    g = getattr(q, "algebra", q)
    rng = random.Random(f"is_coboundary {key}")
    split = set()
    for k in (1, 2, 3) + ((4,) if key == "g_8_2_5_s" else ()):
        lower, same = monomials_of_degree(g.basis, k - 1), monomials_of_degree(g.basis, k)
        reps = cohomology(q, k, verify=False).representatives
        for i in range(9):
            picked = rng.sample(lower, min(3, len(lower)))
            coeffs = (Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))) for _ in picked)
            c = differential_direct(g, Cochain.from_terms(g.basis, dict(zip(picked, coeffs))))
            kind = i % 3
            if kind == 1:
                c = c + Cochain.from_terms(g.basis, {rng.choice(same): Fraction(1)})
            elif kind == 2 and reps:
                c = c + rng.choice(reps)
            if c.is_zero:
                continue
            got = is_coboundary(q, c)
            assert got == is_coboundary_full(q, c), (k, str(c))
            if kind == 0:
                assert got
            elif kind == 2 and reps:
                assert not got
        if key not in TORUS_KEYS or k == 1:  # C^0 is all of inner weight 0
            continue
        built, below = set(_complex(q).built(k).monomials), _complex(q).built(k - 1).monomials
        db = differential_direct(g, _sampled(g, rng, list(below)))
        c = db + differential_direct(g, _sampled(g, rng, [m for m in lower if m not in below]))
        assert is_coboundary(q, c) and is_coboundary_full(q, c), (k, str(c))
        split.add(all(m in built for m, _ in c.terms))
        c = db + _not_closed(g, [m for m in same if m not in built])
        assert not is_coboundary(q, c) and not is_coboundary_full(q, c), (k, str(c))
    # some coboundary had terms of nonzero inner weight
    assert False in split or key not in TORUS_KEYS


@pytest.mark.parametrize("key", ["g_4_2_s", "g_8_2_5_s"])
def test_block_certificate_catches_a_weight_that_is_no_derivation_weight(monkeypatch, key):
    """One more on the first letter's first diagonal weight is no derivation
    weight: some delta_k, restricted to the built blocks, leaves its block."""
    q = build(key)
    weights = diagonal_weights(q.algebra)
    wrong = [(w[0] + 1, *w[1:]) if t == 0 else w for t, w in enumerate(weights)]
    betti_table(q, 3, verify=False)
    module = importlib.import_module("superquad.cohomology")
    monkeypatch.setattr(module, "diagonal_weights", lambda g: wrong)
    with pytest.raises(EngineError, match="weight block"):
        betti_table(build(key), 3, verify=False)


def test_differential_matrix_cross_check_fires():
    # delta = -{I, .}, so -{2I, .} = 2 delta disagrees with every nonzero column
    q = build("g_4_1_s")
    doubled = associated_three_form(q).scale(Fraction(2))
    assert not doubled.is_zero
    q.__dict__["_three_form"] = doubled  # where q keeps I, before anything reads it
    with pytest.raises(EngineError, match="disagree"):
        differential_matrix(q, 1)
    with pytest.raises(EngineError, match="disagree"):
        betti_table(q, 1)
    # unchecked, the complex builds delta_1 and H^1; while the unchecked
    # result holds that complex, a checked call still checks
    unchecked = cohomology(q, 1, verify=False)
    cx = unchecked._complex
    assert cx.delta(1, verify=False).shape == differential_matrix(build("g_4_1_s"), 1).shape
    with pytest.raises(EngineError, match="disagree"):
        cohomology(q, 1)
    with pytest.raises(EngineError, match="disagree"):
        cx.delta(1)
    again = cohomology(q, 1, verify=False)
    assert again == unchecked and again._complex is cx


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


def test_a_kernel_that_drops_a_cocycle_breaks_rank_nullity(monkeypatch):
    """Fault injected: reduced_kernel loses one cocycle, and the rank of
    delta_k's columns, a second route to dim Z^k, catches it."""
    module = importlib.import_module("superquad.cohomology")
    real = module.reduced_kernel
    monkeypatch.setattr(module, "reduced_kernel", lambda m, cols: real(m, cols)[:-1])
    with pytest.raises(EngineError, match="^rank-nullity violated in cohomology assembly$"):
        cohomology(build("g_4_1_s"), 2)


def test_a_remainder_left_in_a_cochain_column_is_an_engine_error(monkeypatch):
    """Fault injected: the quotient leaves an entry in a cochain column, so
    a true cocycle seems not to decompose over B^k + representatives."""
    q = build("g_4_1_s")
    res = cohomology(q, 2)
    real = _Quotient.remainder
    monkeypatch.setattr(_Quotient, "remainder", lambda self, v: {**real(self, v), 0: 1})
    with pytest.raises(EngineError, match="^cocycle does not decompose over B \\+ representatives$"):
        class_vector(q, res.representatives[0], result=res)


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
        res = cohomology(q, k, verify=False)
        # the whole delta_k and delta_{k-1}: with an inner torus, res was
        # computed on their blocks of inner weight 0 only
        d_k = full_differential(q, k, verify=False)
        d_prev = full_differential(q, k - 1, verify=False) if k else None
        n, zero = d_k.shape[1], Fraction(0)
        got = [
            [coordinates(d_k.source, r).get(j, zero) for j in range(n)]
            for r in res.representatives
        ]
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
    with pytest.raises(InputError, match="invalid: invariance at"):
        associated_three_form(q)
    with pytest.raises(InputError, match="invalid: invariance at"):
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
    monkeypatch.setattr(module, "DifferentialMatrix", no_elimination)
    monkeypatch.setattr(module, "Echelon", no_elimination)
    monkeypatch.setattr(module, "cochain_basis", no_elimination)
    monkeypatch.setattr(module, "_enumerate", no_elimination)
    c = Cochain.from_terms(basis, {Monomial(even=(), odd=(0,) * 6): Fraction(1)})
    with pytest.raises(ResourceLimitError):
        cohomology(g, 6)
    with pytest.raises(ResourceLimitError):
        is_coboundary(g, c)
    # class_vector reads a held result only: without one it is refused
    # before any work
    with pytest.raises(InputError, match="not a cohomology"):
        class_vector(g, c)
    with pytest.raises(ResourceLimitError):
        differential_matrix(g, 6)


def test_resource_limit_guard():
    # 3 even and 60 odd letters: dim C^3 = 43,491 passes, dim C^4 does not
    q = build("h", {"n": 1, "m": 60})
    with pytest.raises(ResourceLimitError, match=r"dim C\^4 = 714675 exceeds the monomial limit 200000"):
        cohomology_report(q, 3)


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
    vec = coordinates(cb, c)
    assert vec == {cb.monomials.index(m): x for m, x in c.terms}
    assert cb.index == {_pack(basis.even_dim, m): i for i, m in enumerate(cb.monomials)}
    assert cb.index is cb.index  # built once
    back = from_coordinates(cb, basis, vec)
    assert (back - c).is_zero
    for bad in (-1, cb.dimension):
        with pytest.raises(InputError):
            from_coordinates(cb, basis, {bad: Fraction(1)})


def _count_calls(monkeypatch, names) -> dict:
    """Count the calls made to each of ``names`` through the cohomology
    module and through the cochains module, where the algebra objects find
    the builders of the tables they keep."""
    calls = dict.fromkeys(names, 0)
    for module in map(importlib.import_module, ("superquad.cohomology", "superquad.cochains")):
        for name in names:
            if (original := getattr(module, name, None)) is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


TABLES = (
    "associated_three_form",
    "_poisson_left",
    "_dual_differentials",
    "CochainBasis",
    "_enumerate",
    "DifferentialMatrix",
)


def test_cohomology_builds_the_cross_check_data_once(monkeypatch):
    tables = (*TABLES, "inner_torus", "diagonal_weights")
    calls = _count_calls(monkeypatch, tables)
    q = build("g_8_2_5_s")
    result = cohomology(q, 3)
    # one complex: each table once (the inner torus and the block weights
    # too), the built parts of C^0..C^4 once each (C^0 and C^1 for the
    # dimensions of their acyclic blocks), delta_2 and delta_3; with an
    # inner torus each built part is enumerated by inner weight
    once = dict.fromkeys((*TABLES[:3], *tables[-2:]), 1)
    assert calls == {**once, "CochainBasis": 5, "_enumerate": 5, "DifferentialMatrix": 2}
    table = betti_table(q, 3)
    assert table[3] == result and table[3]._complex is result._complex
    # while the result holds it, the same complex: only delta_0 and delta_1
    assert calls == {**once, "CochainBasis": 5, "_enumerate": 5, "DifferentialMatrix": 2 + 2}
    # with no result alive, a second complex: the built parts of C^0..C^4
    # and delta_0..delta_3 again, but the tables q keeps, the inner torus
    # and the block weights among them, are not built again
    b3 = result.betti
    del result, table
    gc.collect()
    assert betti_table(q, 3)[3].betti == b3
    assert calls == {**once, "CochainBasis": 5 + 5, "_enumerate": 5 + 5, "DifferentialMatrix": 4 + 4}


def test_a_held_result_builds_each_table_and_delta_once(monkeypatch):
    calls = _count_calls(monkeypatch, TABLES)
    q = build("g_6_s")
    table = betti_table(q, 3)
    # no inner torus: each built part is all of its C^k, listed once
    once = dict.fromkeys(TABLES[:3], 1)
    assert calls == {**once, "CochainBasis": 5, "_enumerate": 5, "DifferentialMatrix": 4}
    # the held results keep one complex, which keeps each delta_k; H^k is
    # derived from them again
    cx = table[0]._complex
    again = betti_table(q, 3)
    assert again == table and all(r._complex is cx for r in again)
    assert cohomology(q, 2) == table[2]
    assert cx.delta(2) is cx.delta(2, verify=False)
    assert calls["DifferentialMatrix"] == 4


def test_each_even_and_odd_table_is_built_once_per_complex(monkeypatch):
    """A complex lists each even a-subset table and each odd s-multiset
    table once (``cochains._enumerate``), whatever the degrees that read it.
    Counted by the itertools calls that list them: one per column of a
    table (packed parts, block weights, inner weights), so three a table."""
    listed = []

    def recording(name):
        original = getattr(itertools, name)

        def listing(letters, size):
            listed.append((name, size))
            return original(letters, size)

        return listing

    names = ("combinations", "combinations_with_replacement")
    module = importlib.import_module("superquad.cochains")
    monkeypatch.setattr(module, "itertools", SimpleNamespace(**{name: recording(name) for name in names}))

    def tables() -> tuple[dict[int, int], dict[int, int]]:
        """{size: times listed} of the even and of the odd tables."""
        return tuple({size: count / 3 for size, count in Counter(s for n, s in listed if n == name).items()}
                     for name in names)

    q = build("g_8_2_5_s")  # 6 even and 2 odd letters, with an inner torus
    table = betti_table(q, 4)
    # built(0..5): the even a-subsets and the odd s-multisets for a, s <= 5
    once = dict.fromkeys(range(6), 1)
    assert tables() == (once, once)
    assert betti_table(q, 4) == table and cohomology(q, 2) == table[2]
    assert tables() == (once, once)
    # with no result alive, a new complex lists its own tables, once each
    del table
    gc.collect()
    betti_table(q, 3)
    twice = {**dict.fromkeys(range(5), 2), 5: 1}
    assert tables() == (twice, twice)
    # cochain_basis lists the tables of the bare basis on each call
    listed.clear()
    cochain_basis(q, 3)
    cochain_basis(q, 3)
    assert tables() == (dict.fromkeys(range(4), 2), dict.fromkeys(range(4), 2))
    # without an odd letter, no even table is listed for a degree it cannot reach
    listed.clear()
    even = GradedBasis(labels=("a", "b", "c"), parities=(0, 0, 0))
    assert cochain_basis(even, 2).dimension == 3
    assert tables() == ({2: 1}, {0: 1, 1: 1, 2: 1})


@pytest.mark.parametrize("key", catalog_keys())
def test_delta_keeps_the_kernels_form_from_assembly_to_quotient(monkeypatch, key):
    """betti_table converts no entry of delta on its way to the quotient:
    the cohomology module calls neither ``_frac`` nor ``_sparse_rows``.
    differential_matrix is a view of the kept delta_k: the same entries,
    each a Fraction, where the complex keeps the kernels' form, as the
    -{I, .} side of the cross-check gives it too."""
    module = importlib.import_module("superquad.cohomology")
    calls = {"_frac": 0, "_sparse_rows": 0}
    for name in calls:
        if (original := getattr(module, name, None)) is not None:

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
    q = build(key)
    table = betti_table(q, 3)
    assert calls == {"_frac": 0, "_sparse_rows": 0}
    cx = table[0]._complex
    for k in range(4):
        kept = cx.delta(k)
        d = differential_matrix(q, k)
        assert cx.delta(k) is kept and d.source is kept.source and d.target is kept.target
        assert d.columns == kept.columns
        assert all(type(x) is Fraction for col in d.columns for x in col.values())
        assert all((type(x) is int) == (x.denominator == 1) for col in kept.columns for x in col.values())
        for m in kept.source.keys if isinstance(q, QuadraticLieSuperalgebra) else ():
            values = _poisson(q._three_form_left, ((m, 1),), -1).values()
            assert all((type(x) is int) == (x.denominator == 1) for x in values), (k, m)


def test_class_queries_on_one_complex_build_the_tables_once(monkeypatch):
    calls = _count_calls(monkeypatch, ("_dual_differentials", "diagonal_weights", "_enumerate"))
    q = build("g_6_s")
    cx = _complex(q)  # held: every call given q reads it
    c = differential_direct(q.algebra, mono(q.basis, odd_labels=("X1",)))
    assert is_coboundary(q, c)
    # delta_1 enumerates C^1 and its target C^2; g_6_s has no inner
    # torus, so no block key is read and the diagonal weights are never made
    assert calls == {"_dual_differentials": 1, "diagonal_weights": 0, "_enumerate": 2}
    res = cohomology(q, 2, verify=False)
    assert res._complex is cx
    for i, rep in enumerate(res.representatives):
        query = rep + c
        assert is_cocycle(q, query) and not is_coboundary(q, query)
        unit = [Fraction(int(j == i)) for j in range(res.betti)]
        assert class_vector(q, query, result=res) == unit
        assert class_vector(q, query, result=cohomology(q, 2, verify=False)) == unit
    assert calls == {"_dual_differentials": 1, "diagonal_weights": 0, "_enumerate": 3}


def _seeded_queries(q, k: int, reps, rng: random.Random, count: int) -> list[Cochain]:
    """Class queries as perfbench's class_queries makes them: a seeded
    combination of the representatives (none in every fourth one) plus
    delta of a sparse cochain, and every fifth one plus a monomial of C^k
    (mostly a non-cocycle)."""
    g = getattr(q, "algebra", q)
    lower, same = monomials_of_degree(g.basis, k - 1), monomials_of_degree(g.basis, k)
    queries = []
    for i in range(count):
        c = Cochain.zero(g.basis)
        for rep in reps if i % 4 else ():
            c = c + rep.scale(Fraction(rng.choice((-2, 0, 1, 3))))
        picked = rng.sample(lower, min(2, len(lower)))
        b = {m: Fraction(rng.choice((-3, 1, 2)), rng.choice((1, 2))) for m in picked}
        c = c + differential_direct(g, Cochain.from_terms(g.basis, b))
        if i % 5 == 4:
            c = c + Cochain.from_terms(g.basis, {rng.choice(same): Fraction(1)})
        queries.append(c)
    return queries


@pytest.mark.parametrize("key", ["g_6_s", "g_8_2_5_s"])
def test_class_queries_on_a_plain_algebra_read_the_complex_its_result_holds(monkeypatch, key):
    calls = _count_calls(monkeypatch, ("_dual_differentials", "diagonal_weights"))
    module = importlib.import_module("superquad.cohomology")
    built, original = [], module.DifferentialMatrix

    def recorded(source, target, columns):  # one per delta_k built
        built.append(source.degree)
        return original(source, target, columns)

    monkeypatch.setattr(module, "DifferentialMatrix", recorded)
    q = build(key)
    res = cohomology(q, 2, verify=False)
    assert len(built) == 2  # delta_2 and delta_1
    direct, original_direct = [], module._delta

    def recorded_direct(g, terms):
        direct.append(terms := list(terms))
        return original_direct(g, terms)

    monkeypatch.setattr(module, "_delta", recorded_direct)
    for c in _seeded_queries(q, 2, res.representatives, random.Random(f"queries {key}"), 34):
        cocycle, coboundary = is_cocycle(q, c), is_coboundary(q, c)
        if cocycle:
            assert coboundary == (not any(class_vector(q, c, result=res)))
        else:
            assert not coboundary
            with pytest.raises(InputError, match="requires a cocycle"):
                class_vector(q, c, result=res)
    # the diagonal weights carry the block keys, read only with an inner torus
    assert calls == {"_dual_differentials": 1, "diagonal_weights": int(key in TORUS_KEYS)}
    # the queries read B^2 off the echelon of delta_1 the set-up made
    assert len(built) == 2
    # and delta_2 off its columns: only terms outside the built parts, of
    # nonzero inner weight, are differentiated term by term
    cx = res._complex
    assert all(terms and all(m not in cx.built(2).index for m, _ in terms) for terms in direct)
    assert bool(direct) == (key in TORUS_KEYS)


@pytest.mark.parametrize("key", ["g_6_s", "g_8_2_5_s"])
def test_a_class_query_tests_the_cocycle_once(monkeypatch, key):
    """A class query as the class_queries workload makes it (is_cocycle,
    is_coboundary, then class_vector with the held result) tests c once:
    class_vector reduces c's built part first and runs is_cocycle on c
    only when that fails; the terms outside it are decided by delta."""
    q = build(key)
    res = cohomology(q, 2, verify=False)
    index = set(res._complex.built(2).monomials)
    module = importlib.import_module("superquad.cohomology")
    tested, original = [], module.is_cocycle
    monkeypatch.setattr(module, "is_cocycle", lambda q, c: tested.append(c) or original(q, c))
    queries = _seeded_queries(q, 2, res.representatives, random.Random(f"once {key}"), 34)
    kinds = set()
    for c in queries:
        tested.clear()
        cocycle, coboundary = is_cocycle(q, c), is_coboundary(q, c)
        built = Cochain.from_terms(q.basis, [(m, x) for m, x in c.terms if m in index])
        if cocycle:
            assert coboundary == (not any(class_vector(q, c, result=res)))
            # no second test of c
            assert tested == [], str(c)
        else:
            with pytest.raises(InputError, match="requires a cocycle"):
                class_vector(q, c, result=res)
            # c once, when its built part is not closed; else its rest fails
            assert tested == ([] if original(q, built) else [c]), str(c)
        kinds.add((cocycle, bool(tested)))
    # g_6_s has no inner torus: every non-cocycle fails in its built part;
    # on g_8_2_5_s every seeded one fails in its terms of nonzero inner weight
    assert kinds == {(True, False), (False, key not in TORUS_KEYS)}


@pytest.mark.parametrize("key", ["g_6_s", "g_8_2_5_s"])
def test_representatives_and_class_queries_decode_no_monomial(monkeypatch, key):
    """A cochain is its packed terms: betti_table with representatives, and
    is_cocycle, is_coboundary and class_vector on each representative,
    decode no monomial (``cochains._unpack``); reading ``terms`` and
    printing do."""
    q = build(key)
    calls = _count_calls(monkeypatch, ("_unpack",))
    results = betti_table(q, 3)
    reps = [(r, i, c) for r in results for i, c in enumerate(r.representatives)]
    assert len(reps) > 3
    for r, i, c in reps:
        assert is_cocycle(q, c) and not is_coboundary(q, c)
        assert class_vector(q, c, result=r) == [Fraction(j == i) for j in range(r.betti)]
    assert calls["_unpack"] == 0
    first, last = reps[0][2], reps[-1][2]
    assert first.terms and calls["_unpack"] == len(first.keys)
    assert str(last) and calls["_unpack"] == len(first.keys) + len(last.keys)


@pytest.mark.parametrize("key", catalog_keys())
def test_is_cocycle_matches_the_direct_differential(key):
    """Seeded cochains of degrees 0-4, half of them plus one of the next
    degree: delta(b) plus representatives, some plus a monomial (mostly
    no cocycle then).  Each is checked with no complex alive, with delta_1
    and delta_2 kept, and with delta_0..delta_4 kept; on the inner-torus
    keys some have terms both in and outside the built part."""
    cold, partial, full = build(key), build(key), build(key)
    g = getattr(cold, "algebra", cold)
    rng = random.Random(f"is_cocycle {key}")
    reps = [r.representatives for r in betti_table(build(key), 5, verify=False)]

    def piece(k: int) -> Cochain:
        lower, same = monomials_of_degree(g.basis, k - 1) if k else [], monomials_of_degree(g.basis, k)
        b = {m: Fraction(rng.choice((-3, 1, 2)), rng.choice((1, 2))) for m in rng.sample(lower, min(2, len(lower)))}
        c = differential_direct(g, Cochain.from_terms(g.basis, b))
        for rep in reps[k]:
            c = c + rep.scale(Fraction(rng.choice((-1, 0, 2))))
        if same and rng.random() < 0.4:
            c = c + Cochain.from_terms(g.basis, {rng.choice(same): Fraction(1)})
        return c

    held = [cohomology(partial, 2, verify=False), *betti_table(full, 4, verify=False)]
    cx, answers, split = held[1]._complex, [], False
    for k in range(5):
        for i in range(6):
            c = piece(k) + piece(k + 1) if i % 2 else piece(k)
            want = differential_direct(g, c).is_zero
            for q in (cold, partial, full):
                assert is_cocycle(q, c) == want, (key, str(c))
            answers.append(want)
            inside = {_pack(g.basis.even_dim, m) in cx.built(m.degree).index for m, _ in c.terms if m.degree < 5}
            split |= inside == {True, False}
    assert True in answers and False in answers
    assert split == (key in TORUS_KEYS)


@pytest.mark.parametrize("key", ["g_6_s", "g_8_2_5_s"])
def test_a_cold_is_cocycle_builds_no_delta(monkeypatch, key):
    """With no delta_k kept, for no complex alive or for a degree the
    complex has not built, is_cocycle makes one call of
    differential_direct's kernel and builds nothing."""
    q = build(key)
    queries = _seeded_queries(q, 2, (), random.Random(f"cold {key}"), 10)
    calls = _count_calls(monkeypatch, ("DifferentialMatrix", "_delta"))
    answers = [is_cocycle(q, c) for c in queries]
    assert calls == {"DifferentialMatrix": 0, "_delta": len(queries)}
    res = cohomology(q, 1, verify=False)  # keeps delta_0 and delta_1
    calls.update(DifferentialMatrix=0, _delta=0)
    assert [is_cocycle(q, c) for c in queries] == answers
    assert calls == {"DifferentialMatrix": 0, "_delta": len(queries)}
    assert 2 not in res._complex._deltas
    assert is_cocycle(q, Cochain.zero(q.basis)) and calls["_delta"] == len(queries)


def _two_lambdas() -> tuple:
    """g_8_2_5_s at lam = 1 and 3: one basis, other constants, other built
    parts of C^2; and class queries made from each one's H^2."""
    one, three = build("g_8_2_5_s"), build("g_8_2_5_s", {"lam": 3})
    queries = []
    for q in (one, three):
        reps = cohomology(q, 2, verify=False).representatives
        queries += _seeded_queries(q, 2, reps, random.Random(f"two {q.algebra.constants == one.algebra.constants}"), 12)
    return one, three, queries


def _answers(q, c: Cochain, res: CohomologyResult) -> tuple:
    """(is_cocycle, is_coboundary, class_vector or None for a non-cocycle)."""
    cocycle, coboundary = is_cocycle(q, c), is_coboundary(q, c)
    try:
        return cocycle, coboundary, class_vector(q, c, result=res)
    except InputError:
        return cocycle, coboundary, None


def _checked(q, c: Cochain, got: tuple) -> None:
    """got, the answers of ``_answers``, against the oracles."""
    cocycle, coboundary, vector = got
    assert cocycle == differential_direct(q.algebra, c).is_zero, str(c)
    assert coboundary == is_coboundary_by_rank(q, c), str(c)
    assert (vector is None) == (not cocycle) and (not cocycle or coboundary == (not any(vector))), str(c)


def test_one_cochain_queried_against_two_algebras_gets_each_ones_answer():
    """A cochain keeps its split for the complex that asked last: queried
    against two live complexes of one basis, in turn, it gets each
    algebra's answers."""
    one, three, queries = _two_lambdas()
    held = [cohomology(q, 2, verify=False) for q in (one, three)]
    differ = 0
    for c in queries:
        got = [_answers(q, c, res) for q, res in (*zip((one, three), held), (one, held[0]))]
        for q, answers in zip((one, three, one), got):
            _checked(q, c, answers)
        assert got[0] == got[2]
        differ += got[0][:2] != got[1][:2]
    assert differ > 5


def test_a_split_for_a_dead_complex_is_made_again(monkeypatch):
    """Once no result holds the complex a cochain was split against, the
    next query builds a new complex and splits the cochain again, even
    where a complex of another algebra takes the dead one's place."""
    one, three, queries = _two_lambdas()
    res = cohomology(one, 2, verify=False)
    for c in queries:
        _checked(one, c, _answers(one, c, res))
    live = ref(res._complex)
    del res
    gc.collect()
    assert live() is None
    complexes, init = [], Complex.__init__

    def counted(self, q):
        complexes.append(q)
        init(self, q)

    monkeypatch.setattr(Complex, "__init__", counted)
    res = cohomology(three, 2, verify=False)
    for c in queries:
        _checked(three, c, _answers(three, c, res))
    assert complexes == [three]


def test_a_class_query_differentiates_the_rest_at_most_once(monkeypatch):
    """is_cocycle, is_coboundary and class_vector on one cochain and one
    live complex share its split: delta of its terms outside the built
    part is taken once, when there are any, and never when there are not."""
    q = build("g_8_2_5_s")
    res = cohomology(q, 2, verify=False)
    index = res._complex.built(2).index
    calls = _count_calls(monkeypatch, ("_delta",))
    queries = _seeded_queries(q, 2, res.representatives, random.Random("at most once"), 34)
    rests = 0
    for c in queries:
        calls["_delta"] = 0
        _answers(q, c, res)
        rest = any(m not in index for m in c.keys)
        assert calls["_delta"] == rest, str(c)
        rests += rest
    assert rests > 20


def test_a_plain_algebra_gets_a_new_complex_once_no_result_holds_one(monkeypatch):
    calls = _count_calls(monkeypatch, ("_dual_differentials",))
    complexes, init = [], Complex.__init__

    def counted(self, q):
        complexes.append(id(self))  # not self: the list must not keep it alive
        init(self, q)

    monkeypatch.setattr(Complex, "__init__", counted)
    q = build("g_6_s")
    c = differential_direct(q.algebra, mono(q.basis, odd_labels=("X1",)))
    results = betti_table(q, 2, verify=False)
    live = ref(results[0]._complex)
    assert is_cocycle(q, c) and is_coboundary(q, c)
    assert len(complexes) == 1 and live() is results[0]._complex
    del results
    complexes.clear()
    gc.collect()
    assert live() is None
    # nothing holds a complex of q now: each call builds its own
    assert is_cocycle(q, c) and is_coboundary(q, c)
    assert len(complexes) == 2
    # every complex reads delta(t*) off q.algebra, built there once
    assert calls["_dual_differentials"] == 1


def _count_bracket_tables(monkeypatch) -> list:
    """Every object whose ``bracket_table`` is built, in order, each kept
    alive so that no two are told apart by a reused id."""
    built, build_table = [], LieSuperalgebra.__dict__["bracket_table"].func

    def counted(self):
        built.append(self)
        return build_table(self)

    prop = cached_property(counted)
    prop.__set_name__(LieSuperalgebra, "bracket_table")
    monkeypatch.setattr(LieSuperalgebra, "bracket_table", prop)
    return built


def test_the_tables_of_an_algebra_are_built_once_per_object(monkeypatch):
    calls = _count_calls(monkeypatch, TABLES[:3])
    tables = _count_bracket_tables(monkeypatch)
    q = build("g_8_2_5_s")
    c = Cochain.dual(q.basis, q.basis.labels[-1])
    assert not differential_direct(q.algebra, c).is_zero
    for _ in range(2):
        # no result is held between the rounds: each builds a complex of its own
        assert [r.betti for r in betti_table(q, 3)] == [1, 1, 2, 4]
    assert is_cocycle(q, differential_direct(q.algebra, c))
    d = skew_superderivation_space(q, 0)[0]
    assert skew_superderivation_space(q, 1) and is_skew_superderivation(q, d, 0)
    assert calls == dict.fromkeys(TABLES[:3], 1)
    # q.algebra built its table once, as did every other algebra object
    assert sum(t is q.algebra for t in tables) == 1
    assert len({id(t) for t in tables}) == len(tables)


@pytest.mark.parametrize("key", ["g_8_2_5_s", "g_6_s"])
def test_the_kept_tables_are_never_changed_in_place(key):
    """Every engine path that reads the tables an algebra keeps, then the
    same tables built on an equal new object: a caller that changed one in
    place would show here."""
    q = build(key)
    g, dual = q.algebra, Cochain.dual(q.basis, q.basis.labels[-1])
    results = betti_table(q, 4)
    for k in (2, 3):
        lower = Cochain.from_terms(q.basis, {monomials_of_degree(q.basis, k - 1)[-1]: 1})
        for rep in cohomology(q, k).representatives:
            query = rep + differential_direct(g, lower)
            assert is_cocycle(q, query) and not is_coboundary(q, query)
            assert any(class_vector(q, query, result=results[k]))
    assert poisson_bracket(q, q._three_form, dual) == -differential_via_poisson(q, dual)
    assert validate_quadratic(q).ok and diagonal_weights(q) and inner_torus(q) is not None
    even = skew_superderivation_space(q, 0)
    assert skew_superderivation_space(q, 1) is not None and is_skew_superderivation(q, even[0], 0)
    assert validate_quadratic(one_dim_double_extension(q, even[0])).ok
    fresh = build(key)
    assert fresh == q and fresh is not q
    for name in ("bracket_table", "_by_first", "_duals"):
        assert getattr(g, name) == getattr(fresh.algebra, name), name
    assert (q._three_form, q._three_form_left) == (fresh._three_form, fresh._three_form_left)


@pytest.mark.parametrize("key", catalog_keys())
def test_is_coboundary_matches_the_rank_oracle_cold_and_warm(key):
    q = build(key)
    module = importlib.import_module("superquad.cohomology")
    rng = random.Random(f"rank oracle {key}")
    for k in (1, 2, 3):
        reps = cohomology(q, k, verify=False).representatives
        queries = [c for c in _seeded_queries(q, k, reps, rng, 10) if not c.is_zero]
        want = [is_coboundary_by_rank(q, c) for c in queries]
        # cold: no complex of q is alive, so each call builds its own
        assert id(q) not in module._LIVE
        assert [is_coboundary(q, c) for c in queries] == want, k
        # warm: a held result keeps one complex, which keeps one echelon of B^k
        held = cohomology(q, k, verify=False)
        image = held._complex.image(k - 1, False)
        for _ in range(2):
            assert [is_coboundary(q, c) for c in queries] == want, k
        assert held._complex._images[k - 1] is image and set(held._complex._images) == {k - 1, k}
        assert held._quotient.boundary is image
        del held, image


@pytest.mark.parametrize("key", ["g_4_1_s", "g_6_s", "g_6_2", "h"])
def test_is_coboundary_of_every_monomial_of_c2_matches_the_rank_oracle(key):
    """A monomial that no column of its block of delta_1 reaches is in that
    block's index all the same, and is no coboundary."""
    q = build(key)
    module = importlib.import_module("superquad.cohomology")
    for m in monomials_of_degree(q.basis, 2):
        c = Cochain.from_terms(q.basis, {m: Fraction(1)})
        assert id(q) not in module._LIVE
        assert is_coboundary(q, c) == is_coboundary_by_rank(q, c), (key, m)


def test_class_vector_rejects_a_result_of_another_algebra_with_the_same_basis():
    q1, q2 = build("g_6_2"), build("g_6_2", {"lam": Fraction(2)})
    assert q1.basis == q2.basis
    assert cohomology(q1, 2).betti == 3 and cohomology(q2, 2).betti == 1
    for k in (2, 3):
        rep = cohomology(q2, k).representatives[0]
        with pytest.raises(InputError, match="this algebra"):
            class_vector(q2, rep, result=cohomology(q1, k))
        # the same algebra built anew has the same delta
        again = cohomology(build("g_6_2", {"lam": Fraction(2)}), k)
        assert class_vector(q2, rep, result=again)[0] == 1


TORUS_KEYS = ("g_4_2_s", "g_6_2", "g_8_2_4_s", "g_8_2_5_s", "g_8_2_6_s")


@pytest.mark.parametrize("key", [*TORUS_KEYS, "g_4_1_s", "g_6_s", "h"])
def test_differential_matrix_is_the_built_block_of_the_full_one(key):
    q = build(key)
    cx = _complex(q)
    for k in range(3):
        d, full = differential_matrix(q, k), full_differential(q, k)
        assert d.source is cx.built(k) and d.target is cx.built(k + 1)
        assert full.source.monomials == tuple(monomials_of_degree(q.basis, k))
        for m, whole in zip(full.source.monomials, full.columns):
            image = {full.target.monomials[i]: x for i, x in whole.items()}
            # the whole delta keeps every block key
            assert all(block_key(cx, mm) == block_key(cx, m) for mm in image), (key, k, m)
            if (j := d.source.index.get(_pack(q.basis.even_dim, m))) is not None:
                col = d.columns[j]
                assert {d.target.monomials[i]: x for i, x in col.items()} == image, (key, k, m)


@pytest.mark.parametrize(
    "key, degrees",
    [
        *(pytest.param(key, range(7), id=f"{key}-0-6") for key in catalog_keys()),
        pytest.param("g_8_2_5_s", (30,), id="g_8_2_5_s-30"),
    ],
)
def test_the_block_keys_are_the_partition_of_the_oracle(key, degrees):
    q = build(key)
    cx = _complex(q)
    for k in degrees:
        blocks: dict[tuple, set[Monomial]] = {}
        for m in monomials_of_degree(q.basis, k):
            blocks.setdefault(block_key(cx, m), set()).add(m)
        assert ({frozenset(b) for b in blocks.values()}, cx.built(k).monomials) == block_partition(q, k), (key, k)


@pytest.mark.parametrize(
    "key, degrees",
    [
        *(pytest.param(key, range(7), id=f"{key}-0-6") for key in catalog_keys()),
        pytest.param("g_8_2_5_s", range(31), id="g_8_2_5_s-0-30"),
    ],
)
def test_the_built_parts_are_those_of_the_filter_oracle(key, degrees):
    """built(k), enumerated directly, is all of C^k keyed and filtered by
    inner weight: the same monomials in the same order, the same keys."""
    cx = _complex(build(key))
    for k in degrees:
        want = built_by_filter(cx, k)
        assert cx.built(k).monomials == tuple(want), (key, k)
        packed = {_pack(cx.basis.even_dim, m): block for m, block in want.items()}
        assert cx._keys.get(k) == (packed if cx.algebra._torus else None), (key, k)


def test_the_complex_tables_list_what_the_per_degree_enumeration_listed():
    """built(k) is joined from the even and odd tables its complex keeps:
    the same packed monomials in the same order, with the same block keys,
    as listing every even subset and odd multiset again for each degree
    (``enumerate_by_degree``).  cochain_basis and monomials_of_degree join
    throwaway tables of a bare basis, with the same result, and a degree
    past DEGREE_LIMIT is refused as before."""
    for key, top in [*((key, 7) for key in catalog_keys()), ("g_6_s", 12)]:
        cx = _complex(build(key))
        weights = cx.algebra._weights if cx.algebra._torus else ()
        for k in range(top + 1):
            want = enumerate_by_degree(cx.basis, k, *weights)
            assert cx.built(k).keys == tuple(want), (key, k)
            assert cx._keys.get(k) == (want if weights else None), (key, k)
    basis = GradedBasis(labels=("a", "b", "c", "x", "y", "z"), parities=(0, 0, 0, 1, 1, 1))
    for k in range(8):
        want = enumerate_by_degree(basis, k)
        assert cochain_basis(basis, k).keys == tuple(want), k
        assert monomials_of_degree(basis, k) == [_unpack(3, m) for m in want], k
    past = f"degree {DEGREE_LIMIT + 1} exceeds the packed monomials' limit {DEGREE_LIMIT}$"
    for enumerate_ in (enumerate_by_degree, cochain_basis, monomials_of_degree):
        with pytest.raises(ResourceLimitError, match=past):
            enumerate_(basis, DEGREE_LIMIT + 1)


@pytest.mark.parametrize("inside", [False, True], ids=["nonzero-inner-weight", "another-built-block"])
def test_block_certificate_catches_an_injected_term_of_another_block(monkeypatch, inside):
    """A term of another block injected into delta of one monomial raises
    the block certificate's EngineError, never a KeyError: one of nonzero
    inner weight has no key among those of built(k + 1)."""
    q, k = build("g_8_2_5_s"), 2
    cx = _complex(q)
    cx.built(k + 1)
    m0, targets = cx.built(k).keys[0], cx._keys[k + 1]
    if inside:
        stray = next(m for m, key in targets.items() if key != cx._keys[k][m0])
    else:
        stray = next(m for m in cochain_basis(q, k + 1).keys if m not in targets)
    module = importlib.import_module("superquad.cohomology")
    original = module._delta

    def leaking(g, terms):
        terms = list(terms)
        image = original(g, terms)
        if terms == [(m0, 1)]:
            image[stray] = 1
        return image

    monkeypatch.setattr(module, "_delta", leaking)
    with pytest.raises(EngineError, match="leaves its weight block"):
        differential_matrix(q, k, verify=False)


def _inner_weight(m: Monomial, w) -> Fraction:
    return sum((w[t] for t in m.even + m.odd), Fraction(0))


def _rows_and_reps(results):
    return [
        (r.dim_cochains, r.dim_cocycles, r.dim_coboundaries, r.betti, [str(c) for c in r.representatives])
        for r in results
    ]


@pytest.mark.parametrize("key", catalog_keys())
def test_pruned_tables_match_the_unpruned_oracle(key):
    q = build(key)
    assert _rows_and_reps(betti_table(q, 4)) == _rows_and_reps(betti_table_unpruned(q, 4, verify=False))


def test_pruned_deep_table_matches_the_unpruned_oracle():
    q = build("g_8_2_5_s")
    want = _rows_and_reps(betti_table_unpruned(q, 8, verify=False))
    assert _rows_and_reps(betti_table(q, 8)) == want
    assert _rows_and_reps(betti_table(q, 8, verify=False)) == want


def test_only_the_blocks_of_inner_weight_zero_are_built():
    for key in catalog_keys():
        cx = _complex(build(key))
        for k in range(4):
            d = cx.delta(k)
            # delta_k runs between the built parts, and lands in the source of delta_{k+1}
            assert d.source is cx.built(k) and d.target is cx.built(k + 1)
            assert d.target is cx.delta(k + 1).source
            monomials = monomials_of_degree(cx.basis, k)
            if key not in TORUS_KEYS:
                assert d.source.monomials == tuple(monomials)
                continue
            [(_, w)] = cx.algebra._torus
            zero = [m for m in monomials if not _inner_weight(m, w)]
            assert d.source.monomials == tuple(zero), (key, k)
    # g_8_2_5_s: 66 of the 432 monomials of C^0..C^5 have inner weight 0
    cx = _complex(build("g_8_2_5_s"))
    shapes = [cx.delta(k).shape for k in range(6)]
    assert shapes == [(2, 1), (6, 2), (14, 6), (19, 14), (24, 19), (30, 24)]
    assert sum(cols for _, cols in shapes) == 66
    assert sum(cochain_dimension(cx.basis, k) for k in range(6)) == 432


def test_cartan_certificate_catches_a_wrong_inner_weight(monkeypatch):
    q = build("g_8_2_5_s")
    [(x, w)] = inner_torus(q)
    module = importlib.import_module("superquad.cohomology")
    monkeypatch.setattr(module, "inner_torus", lambda g: [(x, (w[0] + 1, *w[1:]))])
    with pytest.raises(EngineError, match="inner torus is wrong"):
        betti_table(q, 2, verify=False)
    with pytest.raises(EngineError, match="inner torus is wrong"):
        cohomology(q, 1)


def test_cartan_formula_on_random_cochains():
    """delta i_x + i_x delta multiplies a monomial by minus its inner
    weight, in every degree: the certificate checks it on the generators."""
    rng = random.Random("cartan")
    for key in TORUS_KEYS:
        q = build(key)
        g = q.algebra
        for x, w in inner_torus(q):
            vector = [Fraction(x.get(i, 0)) for i in range(g.dim)]
            for k in range(1, 5):
                monomials = monomials_of_degree(g.basis, k)
                for m in rng.sample(monomials, min(6, len(monomials))):
                    c = Cochain.from_terms(g.basis, {m: Fraction(rng.choice((-2, 1, 3)))})
                    lie = differential_direct(g, contract_vector(c, vector)) + contract_vector(
                        differential_direct(g, c), vector
                    )
                    assert (lie + c.scale(_inner_weight(m, w))).is_zero, (key, k, m)


@pytest.mark.parametrize("key", TORUS_KEYS)
def test_the_cartan_witness_matches_the_rank_oracle(key):
    """Seeded delta(b), alone or plus or minus a monomial of C^k, each with
    terms outside the built part.  Those lie in blocks that Cartan's
    witness -i_x c / s makes acyclic, so is_coboundary decides them by
    one differential in place of reading B^k."""
    q = build(key)
    g = q.algebra
    rng = random.Random(f"cartan witness {key}")
    answers = []
    for k in (2, 3, 4):
        built = set(_complex(q).built(k).monomials)
        lower, same = monomials_of_degree(g.basis, k - 1), monomials_of_degree(g.basis, k)
        for i in range(30):
            b = {m: Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))) for m in rng.sample(lower, 3)}
            c = differential_direct(g, Cochain.from_terms(g.basis, b))
            if i % 3:
                c = c + Cochain.from_terms(g.basis, {rng.choice(same): Fraction((-1) ** i)})
            if all(m in built for m, _ in c.terms):
                continue
            answers.append(is_coboundary(q, c))
            assert answers[-1] == is_coboundary_by_rank(q, c), (k, str(c))
    assert True in answers and False in answers


@pytest.mark.parametrize("key", ["g_6_s", "g_8_2_5_s"])
def test_each_delta_is_eliminated_once(monkeypatch, key):
    """betti_table feeds the columns of each delta_k to one echelon, which
    serves the rank-nullity check of H^k and B^{k+1} of H^{k+1}."""
    fed, original = [], Echelon.__init__

    def recorded(self, rows=(), *args, **kwargs):
        rows = list(rows)
        fed.append([dict(r) for r in rows])
        original(self, rows, *args, **kwargs)

    monkeypatch.setattr(Echelon, "__init__", recorded)
    results = betti_table(build(key), 6)
    cx = results[0]._complex
    for k in range(7):
        columns = _sparse_rows(cx.delta(k).columns)
        assert sum(rows == columns for rows in fed) == 1, k


def test_class_vector_drops_the_terms_of_nonzero_inner_weight():
    for key, k in (("g_6_2", 3), ("g_8_2_5_s", 2), ("g_8_2_5_s", 4)):
        q = build(key)
        [(_, w)] = inner_torus(q)
        res = cohomology(q, k, verify=False)
        assert res.betti
        rng = random.Random(f"class_vector {key} {k}")
        lower = [m for m in monomials_of_degree(q.basis, k - 1) if _inner_weight(m, w)]
        not_closed = _not_closed(q.algebra, [m for m in monomials_of_degree(q.basis, k) if _inner_weight(m, w)])
        for i, rep in enumerate(res.representatives):
            b = Cochain.from_terms(q.basis, {m: Fraction(rng.choice((-2, 1, 3))) for m in rng.sample(lower, 3)})
            db = differential_direct(q.algebra, b)
            assert not db.is_zero and all(_inner_weight(m, w) for m, _ in db.terms)
            unit = [Fraction(int(j == i)) for j in range(res.betti)]
            assert class_vector(q, rep + db, result=res) == unit
            # a result of an equal algebra object: the terms are split on its complex
            assert class_vector(q, rep + db, result=cohomology(build(key), k, verify=False)) == unit
            assert class_vector(q, db, result=res) == [Fraction(0)] * res.betti
            # a rest of nonzero inner weight that is not closed is refused
            with pytest.raises(InputError, match="requires a cocycle"):
                class_vector(q, rep + db + not_closed, result=res)


def test_a_bracket_that_fails_jacobi_is_refused_before_pruning():
    # [a, b] = b, [a, c] = -c, [b, c] = b: ad a is diagonal with weights
    # (0, 1, -1), and [a, [b, c]] = b while [[a, b], c] + [b, [a, c]] = 0
    basis = GradedBasis(labels=("a", "b", "c"), parities=(0, 0, 0))
    g = LieSuperalgebra.from_label_table(
        basis, [("a", "b", {"b": 1}), ("a", "c", {"c": -1}), ("b", "c", {"b": 1})]
    )
    assert [w for _, w in inner_torus(g)] == [(0, 1, -1)]
    with pytest.raises(InputError, match="super Jacobi"):
        betti_table(g, 1)


def test_a_bracket_that_breaks_the_grading_is_refused_by_the_delta_kernel():
    # a, b even and u odd, [a, b] = u: the packed delta kernel's signs
    # rest on the grading, so delta(t*) is never built from such a bracket
    basis = GradedBasis(labels=("a", "b", "u"), parities=(0, 0, 1))
    g = LieSuperalgebra.from_label_table(basis, [("a", "b", {"u": 1})])
    for call in (lambda: betti_table(g, 1), lambda: differential_direct(g, Cochain.dual(basis, "u"))):
        with pytest.raises(InputError, match=r"the bracket breaks the grading: \[a, b\] has a u term"):
            call()


@pytest.mark.parametrize("k", [-1, 1.5, "2", True, None])
def test_every_degree_is_checked_alike(k):
    q = build("g_4_1_s")
    calls = [
        lambda: cochain_dimension(q.basis, k),
        lambda: cochain_basis(q, k),
        lambda: monomials_of_degree(q.basis, k),
        lambda: differential_matrix(q, k),
        lambda: cohomology(q, k),
        lambda: betti_table(q, k),
        lambda: cohomology_report(q, k),
    ]
    for call in calls:
        with pytest.raises(InputError, match="must be non-negative" if k == -1 else "must be an int"):
            call()


@pytest.mark.parametrize("bad", [None, "x", "basis"])
def test_every_algebra_argument_is_checked_alike(bad):
    q = build("g_4_1_s")
    bad = q.basis if bad == "basis" else bad
    c, rep = mono(q.basis, even_labels=("Y0",)), cohomology(q, 1).representatives[0]
    calls = [
        lambda: differential_matrix(bad, 1),
        lambda: cohomology(bad, 1),
        lambda: betti_table(bad, 1),
        lambda: is_cocycle(bad, c),
        lambda: is_coboundary(bad, c),
        lambda: class_vector(bad, c),
        lambda: cohomology_report(bad, 1),
        lambda: differential_direct(bad, c),
    ]
    if not isinstance(bad, GradedBasis):
        calls += [
            lambda: cochain_dimension(bad, 1),
            lambda: cochain_basis(bad, 1),
            lambda: monomials_of_degree(bad, 1),
        ]
    for call in calls:
        with pytest.raises(InputError, match="expected a"):
            call()
    for result in (bad, 5) if bad is not None else (5,):
        with pytest.raises(InputError, match="not a cohomology"):
            class_vector(q, rep, result=result)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda q: coordinates(cochain_basis(q, 2), Cochain.dual(q.basis, "X0")),
            r"does not live in C\^2",
            id="coordinates-degree",
        ),
        pytest.param(
            lambda q: class_vector(q, Cochain.zero(q.basis)),
            "result is not a cohomology",
            id="class_vector-zero",
        ),
    ],
)
def test_a_cochain_of_another_degree_and_a_bare_zero_class_are_refused(call, message):
    with pytest.raises(InputError, match=message):
        call(build("g_4_1_s"))


def _mixed(q) -> Cochain:
    return mono(q.basis, even_labels=("Y0",)) + mono(q.basis, odd_labels=("X1", "X1"))


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda q: from_coordinates(cochain_basis(q, 1), q.basis, {4: Fraction(1)}),
            InputError,
            "coordinate index out of range",
            id="from_coordinates-index",
        ),
        pytest.param(
            lambda q: class_vector(q, cohomology(q, 2).representatives[0], result=cohomology(q, 1)),
            InputError,
            "result is for degree 1, not 2",
            id="class_vector-result-degree",
        ),
        pytest.param(
            lambda q: is_coboundary(q, _mixed(q)),
            InputError,
            "coboundary test requires a Z-homogeneous cochain",
            id="is_coboundary-mixed",
        ),
        pytest.param(
            lambda q: class_vector(q, _mixed(q), result=cohomology(q, 1)),
            InputError,
            "class_vector requires a Z-homogeneous cochain",
            id="class_vector-mixed",
        ),
        pytest.param(
            lambda q: (lambda r: CohomologyResult(
                r.degree, r.dim_cochains, r.dim_cocycles, r.dim_coboundaries, betti=3, representatives=r.representatives
            ))(cohomology(q, 2)),
            EngineError,
            "betti must equal dim cocycles - dim coboundaries",
            id="CohomologyResult-betti",
        ),
    ],
)
def test_each_refusal_names_its_rule(call, error, message):
    with pytest.raises(error, match=message):
        call(build("g_4_1_s"))


def test_a_nonzero_constant_is_no_coboundary():
    q = build("g_4_1_s")
    c = Cochain.from_terms(q.basis, {Monomial(even=(), odd=()): Fraction(3)})
    assert is_cocycle(q, c) and not is_coboundary(q, c)


def test_the_field_width_bounds_the_degree(tmp_path, capsys):
    """x, y even and s odd, [s, s] = x: dim C^k <= 4 in every degree, so
    the monomial guard never fires, and delta(x* s^(k-1)) = -1/2 s^(k+1)
    fills s's field.  DEGREE_LIMIT - 1 is the largest degree delta can
    start from: it runs and matches the tuple kernels; the next is refused
    before any work, from the API and from the CLI."""
    basis = GradedBasis(labels=("x", "y", "s"), parities=(0, 0, 1))
    g = LieSuperalgebra.from_label_table(basis, [("s", "s", {"x": 1})])
    top = DEGREE_LIMIT - 1
    assert max(cochain_dimension(basis, k) for k in range(DEGREE_LIMIT + 2)) == 4
    res = cohomology(g, top)
    ranks = {}
    for k in (top - 1, top):
        d = differential_matrix(g, k)
        assert d.source.monomials == tuple(monomials_of_degree(basis, k))
        for m, col in zip(d.source.monomials, d.columns):
            assert {d.target.monomials[i]: x for i, x in col.items()} == delta_by_tuples(g, [(m, Fraction(1))]), m
        ranks[k] = rank(d.columns)
    assert Monomial((), (2,) * DEGREE_LIMIT) in d.target.monomials
    assert (res.dim_cochains, res.betti) == (4, 4 - ranks[top] - ranks[top - 1])
    s, below = Cochain.dual(basis, "s"), Cochain.from_terms(basis, {Monomial((), (2,) * top): 1})
    assert wedge(below, s) == Cochain.from_terms(basis, {Monomial((), (2,) * DEGREE_LIMIT): 1})
    # s^top = delta(-2 x* s^(top-2)), and x* s^(top-1) is no cocycle
    assert is_cocycle(g, below) and is_coboundary(g, below)
    assert not is_cocycle(g, mono(basis, ("x",), ("s",) * (top - 1)))
    for refused in (cohomology, betti_table, differential_matrix):
        # check_size's own refusal, before the complex builds any C^k
        fresh = LieSuperalgebra.from_label_table(basis, [("s", "s", {"x": 1})])
        cx = _complex(fresh)
        with pytest.raises(ResourceLimitError, match="past the packed monomials' limit"):
            refused(fresh, DEGREE_LIMIT)
        assert _complex(fresh) is cx and cx._built == {}
    full = wedge(below, s)
    for refused in (
        lambda: cochain_basis(g, DEGREE_LIMIT + 1),
        lambda: differential_direct(g, full),
        lambda: is_cocycle(g, full),
        lambda: wedge(full, s),
        lambda: is_coboundary(g, wedge(full, Cochain.dual(basis, "y"))),
        # no field can overflow: a cochain past the limit is never built
        lambda: Cochain(basis, [(Monomial((), (2,) * (DEGREE_LIMIT + 1)), 1)]),
        lambda: Cochain.from_terms(basis, {Monomial((0,), (2,) * DEGREE_LIMIT): 1}),
    ):
        with pytest.raises(ResourceLimitError, match="packed monomial"):
            refused()
    path = tmp_path / "s_squared.json"
    save(path, g)
    assert main(["betti", str(path), "--max-degree", str(top)]) == 0
    assert f"b_{top} = {res.betti}" in capsys.readouterr().out
    assert main(["betti", str(path), "--max-degree", str(DEGREE_LIMIT)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "past the packed monomials' limit 255" in err and err.count("\n") == 1


def test_is_cocycle_reads_each_degree_once_and_checks_the_largest(monkeypatch):
    """is_cocycle finds each term's degree once, in the pass that splits the
    terms by degree (``Cochain._degrees``), and checks the room of the
    largest before any sum: a cochain whose top term fills s's field is
    refused even when a lower term alone shows it is no cocycle, and one a
    degree lower is answered."""
    module = importlib.import_module("superquad.cochains")
    basis = GradedBasis(labels=("x", "y", "s"), parities=(0, 0, 1))
    g = LieSuperalgebra.from_label_table(basis, [("s", "s", {"x": 1})])
    cohomology(g, 2)  # delta_0..delta_2 kept: x* s is read off delta_2's columns
    low = mono(basis, ("x",), ("s",))
    assert not is_cocycle(g, low)
    full = Cochain.from_terms(basis, {Monomial((), (2,) * DEGREE_LIMIT): 1})
    with pytest.raises(ResourceLimitError, match="packed monomial"):
        is_cocycle(g, low + full)
    below = Cochain.from_terms(basis, {Monomial((), (2,) * (DEGREE_LIMIT - 1)): 1})
    seen, degree_of = [], module._degree_of
    monkeypatch.setattr(module, "_degree_of", lambda ne, m: seen.append(m) or degree_of(ne, m))
    c = low + below + Cochain.dual(basis, "y")
    assert not is_cocycle(g, c)
    assert sorted(seen) == sorted(c.keys)
