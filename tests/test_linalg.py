"""Exact linear algebra over Fraction."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superquad.errors import InputError
from superquad.linalg import (
    echelon_basis,
    identity,
    inverse,
    mat_mul,
    nullspace,
    rank,
    rat,
    rref,
    solve,
)

fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def matrices(rows, cols):
    return st.lists(
        st.lists(fractions, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


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
@given(matrices(3, 4))
def test_rref_pivots_are_unit_columns(m):
    r, pivots = rref(m)
    for row_idx, col in enumerate(pivots):
        column = [r[i][col] for i in range(len(r))]
        assert column[row_idx] == 1
        assert all(column[i] == 0 for i in range(len(r)) if i != row_idx)


@settings(max_examples=40, deadline=None)
@given(matrices(4, 3))
def test_nullspace_vectors_are_in_kernel(m):
    ns = nullspace(m)
    assert len(ns) == 3 - rank(m)
    for v in ns:
        image = [sum(row[j] * v[j] for j in range(3)) for row in m]
        assert all(x == 0 for x in image)


@settings(max_examples=40, deadline=None)
@given(matrices(3, 3), st.lists(fractions, min_size=3, max_size=3))
def test_solve_round_trip(m, x):
    b = [sum(m[i][j] * x[j] for j in range(3)) for i in range(3)]
    got = solve(m, b)
    assert got is not None
    back = [sum(m[i][j] * got[j] for j in range(3)) for i in range(3)]
    assert back == b


def test_solve_inconsistent_returns_none():
    m = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert solve(m, [Fraction(1), Fraction(2)]) is None


@settings(max_examples=30, deadline=None)
@given(matrices(3, 3))
def test_inverse_when_nonsingular(m):
    if rank(m) < 3:
        with pytest.raises(InputError):
            inverse(m)
    else:
        inv = inverse(m)
        assert mat_mul(m, inv) == identity(3)
        assert mat_mul(inv, m) == identity(3)


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
