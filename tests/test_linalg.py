"""Exact linear algebra over Fraction: the sparse ``Echelon`` and what is
built on it, each against the dense oracles of ``helpers``."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import gram_form, inverse_dense, mat_mul, nullspace_dense, rref_dense
from superquad import BilinearForm, GradedBasis
from superquad.algebra import Subspace
from superquad.errors import InputError
from superquad.linalg import Echelon, _num, rank, rat, rat_str, reduced_kernel

fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def cell(draw, sparsity: int) -> Fraction:
    """A fraction in one of ``sparsity`` draws, else 0."""
    return draw(fractions) if draw(st.integers(1, sparsity)) == 1 else Fraction(0)


@st.composite
def matrices(draw, min_dim=0, max_dim=8):
    """(m, cols): up to max_dim x max_dim, dense or sparse, with zero rows
    and exact copies of earlier rows mixed in."""
    rows = draw(st.integers(min_dim, max_dim))
    cols = draw(st.integers(min_dim, max_dim))
    sparsity = draw(st.sampled_from([1, 4, 12]))  # ~1 in sparsity cells drawn
    m: list[list[Fraction]] = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["fresh"] * 4 + ["zero", "copy"]))
        if kind == "zero":
            m.append([Fraction(0)] * cols)
        elif kind == "copy" and m:
            m.append(list(m[draw(st.integers(0, len(m) - 1))]))
        else:
            m.append([cell(draw, sparsity) for _ in range(cols)])
    return m, cols


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def sparse(m) -> list[dict[int, Fraction]]:
    """m as {column: nonzero} rows, new dicts for Echelon to reduce."""
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def dense(rows, cols: int) -> list[list[Fraction]]:
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def even_form(m) -> BilinearForm:
    """m as the Gram matrix of a form on an all-even basis."""
    basis = GradedBasis(labels=tuple(f"e{i}" for i in range(len(m))), parities=(0,) * len(m))
    return gram_form(basis, m)


@st.composite
def squares(draw, max_dim=8):
    """Square matrices: L * U with unit L and invertible U (nonsingular),
    or a square from ``matrices`` with a zero or repeated row (singular)."""
    n = draw(st.integers(0, max_dim))
    if draw(st.booleans()):
        nonzero = fractions.filter(lambda x: x != 0)
        low, up = identity(n), identity(n)
        for i in range(n):
            low[i][:i] = [draw(fractions) for _ in range(i)]
            up[i][i:] = [draw(nonzero)] + [draw(fractions) for _ in range(i + 1, n)]
        return mat_mul(low, up)
    m, _ = draw(matrices(min_dim=n, max_dim=n))
    if n:
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        m[i] = list(m[j]) if i != j else [Fraction(0)] * n
    return m


def test_rref_identity():
    rows = Echelon(sparse([[2, 1], [1, 1]])).rows
    assert rows == {0: {0: 1}, 1: {1: 1}}


def test_rank_examples():
    assert rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert rank([]) == 0
    assert rank([[Fraction(0)]]) == 0


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rref_pivots_are_unit_columns(mc):
    m, _ = mc
    rows = Echelon(sparse(m)).rows
    for p, row in rows.items():
        assert min(row) == p and row[p] == 1
        assert all(p not in other for q, other in rows.items() if q != p)


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_nullspace_vectors_are_in_kernel(mc):
    m, cols = mc
    ns = Echelon(sparse(m)).kernel(cols)
    assert len(ns) == cols - rank(m)
    for v in ns:
        assert all(sum(row[j] * x for j, x in v.items()) == 0 for row in m)


@settings(max_examples=30, deadline=None)
@given(squares())
def test_inverse_when_nonsingular(m):
    n = len(m)
    form = even_form(m)
    if rank(m) < n:
        with pytest.raises(InputError, match="singular"):
            form.inverse_columns
    else:
        inv = [list(col) for col in zip(*dense(form.inverse_columns, n))] if n else []
        assert mat_mul(m, inv) == identity(n)
        assert mat_mul(inv, m) == identity(n)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_elimination_matches_the_dense_oracle(mc):
    m, cols = mc
    reduced, pivots = rref_dense(m)
    rows = Echelon(sparse(m)).rows
    assert sorted(rows) == pivots
    assert dense([rows[p] for p in pivots], cols) == reduced
    assert dense(Echelon(sparse(m)).kernel(cols), cols) == nullspace_dense(m, cols)
    assert rank(m) == len(reduced)
    # rank copies {column: nonzero} rows: they are not reduced in place
    rows_in = sparse(m)
    assert rank(rows_in) == len(reduced) and rows_in == sparse(m)


@settings(max_examples=80, deadline=None)
@given(squares())
def test_inverse_matches_the_dense_oracle(m):
    # an all-even basis: the form's parities put no block structure on m
    n = len(m)
    try:
        want = inverse_dense(m)
    except InputError:
        with pytest.raises(InputError):
            even_form(m).inverse_columns
    else:
        assert dense(even_form(m).inverse_columns, n) == [list(col) for col in zip(*want)]


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_reduced_kernel_is_the_reduced_basis_of_the_kernel(mc):
    # a subspace has exactly one reduced echelon basis
    m, cols = mc
    # the rows in the kernels' form, which reduced_kernel reads and never changes
    sparse = [{j: _num(x) for j, x in enumerate(row) if x} for row in m]
    got = reduced_kernel(sparse, cols)
    want = rref_dense(nullspace_dense(m, cols))[0] if cols else []
    assert [[v.get(j, 0) for j in range(cols)] for v in got] == want
    assert sparse == [{j: x for j, x in enumerate(row) if x} for row in m]


def test_reduced_kernel_of_no_equations_is_the_identity():
    assert reduced_kernel([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert reduced_kernel([], 0) == []


def test_echelon_basis_removes_dependence():
    vecs = [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(2), Fraction(4), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(3)],
    ]
    ambient = GradedBasis(labels=("a", "b", "c"), parities=(0, 0, 0))
    basis = Subspace.from_vectors(ambient, vecs).rows
    assert basis == ((1, 2, 0), (0, 0, 1))
    # echelon form: each leading entry is 1 and lies right of the previous
    leads = [next(j for j, x in enumerate(v) if x != 0) for v in basis]
    assert leads == sorted(leads)
    assert all(v[j] == 1 for v, j in zip(basis, leads))


def test_rat_literals():
    assert rat(" -7/2 ") == Fraction(-7, 2)
    assert rat(3) == Fraction(3)
    for bad in ("0.5", "1/0", "1/-2", "", 0.5):
        with pytest.raises(InputError):
            rat(bad)
    # beyond the interpreter's 4300-digit limit for int parsing
    with pytest.raises(InputError):
        rat("1" * 4400)


def test_one_renderer_refuses_floats():
    assert rat_str(Fraction(-7, 2)) == "-7/2" and rat_str(3) == "3" and rat_str("4/6") == "2/3"
    for bad in (0.1, 1.0, None):
        with pytest.raises(InputError, match="not an exact rational"):
            rat_str(bad)
