"""Exact linear algebra over Fraction."""
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from helpers import mat_mul, nullspace_dense, rref_dense
from superquad import linalg
from superquad.errors import InputError
from superquad.linalg import (
    echelon_basis,
    identity,
    inverse,
    nullspace,
    rank,
    rat,
    reduced_kernel,
    rref,
)

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
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    r, pivots = rref(m)
    assert r == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert pivots == [0, 1]


def test_rank_examples():
    assert rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert rank([]) == 0
    assert rank([[Fraction(0)]]) == 0


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rref_pivots_are_unit_columns(mc):
    m, _ = mc
    r, pivots = rref(m)
    for row_idx, col in enumerate(pivots):
        column = [r[i][col] for i in range(len(r))]
        assert column[row_idx] == 1
        assert all(column[i] == 0 for i in range(len(r)) if i != row_idx)


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_nullspace_vectors_are_in_kernel(mc):
    m, cols = mc
    ns = nullspace(m, cols)
    assert len(ns) == cols - rank(m)
    for v in ns:
        image = [sum(row[j] * v[j] for j in range(cols)) for row in m]
        assert all(x == 0 for x in image)


@settings(max_examples=30, deadline=None)
@given(squares())
def test_inverse_when_nonsingular(m):
    n = len(m)
    if rank(m) < n:
        with pytest.raises(InputError):
            inverse(m)
    else:
        inv = inverse(m)
        assert mat_mul(m, inv) == identity(n)
        assert mat_mul(inv, m) == identity(n)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_elimination_matches_the_dense_oracle(mc):
    m, cols = mc
    expected = rref_dense(m)
    assert rref(m) == expected
    assert rank(m) == len(expected[0])
    got = (nullspace(m, cols), echelon_basis(m))
    assert got[0] == nullspace_dense(m, cols)
    with patch.object(linalg, "rref", rref_dense):
        assert got == (nullspace(m, cols), echelon_basis(m))
    # the same matrix as {column: nonzero} rows; rref answers in that form
    sparse = [{j: x for j, x in enumerate(row) if x} for row in m]
    reduced = [{j: x for j, x in enumerate(row) if x} for row in expected[0]]
    assert rref(sparse) == (reduced, expected[1])
    assert rank(sparse) == len(expected[0])
    assert nullspace(sparse, cols) == got[0]
    assert sparse == [{j: x for j, x in enumerate(row) if x} for row in m]  # not reduced in place


@settings(max_examples=80, deadline=None)
@given(squares())
def test_inverse_matches_the_dense_oracle(m):
    def inverse_or_none():
        try:
            return inverse(m)
        except InputError:
            return None

    got = inverse_or_none()
    with patch.object(linalg, "rref", rref_dense):
        assert got == inverse_or_none()
    assert (got is None) == (len(rref_dense(m)[0]) < len(m))


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_reduced_kernel_is_the_reduced_basis_of_the_kernel(mc):
    # a subspace has exactly one reduced echelon basis
    m, cols = mc
    got = reduced_kernel(m, cols)
    want = rref_dense(nullspace_dense(m, cols))[0] if cols else []
    assert [[v.get(j, 0) for j in range(cols)] for v in got] == want
    sparse = [{j: x for j, x in enumerate(row) if x} for row in m]
    assert reduced_kernel(sparse, cols) == got


def test_reduced_kernel_of_no_equations_is_the_identity():
    assert reduced_kernel([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert reduced_kernel([], 0) == []


def test_echelon_basis_removes_dependence():
    vecs = [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(2), Fraction(4), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(3)],
    ]
    basis = echelon_basis(vecs)
    assert len(basis) == 2
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
