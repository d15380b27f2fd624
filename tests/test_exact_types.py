"""Exact types at the API: inside the kernels an integral value may be a
plain int, but every value the public API returns is a Fraction, never a
float or a bare int, and every division goes through Fraction so that
two ints never divide into a float."""
from fractions import Fraction

import pytest

from helpers import QUADRATIC_KEYS
from superquad import (
    BilinearForm,
    Cochain,
    GradedBasis,
    LieSuperalgebra,
    QuadraticLieSuperalgebra,
    Sp2Element,
    associated_three_form,
    betti_table,
    build,
    catalog_keys,
    check_commuting_dependence,
    class_vector,
    differential_direct,
    differential_matrix,
    differential_via_poisson,
    one_dim_double_extension,
    poisson_bracket,
    skew_superderivation_space,
    wedge,
)
from superquad.cochains import Monomial, evaluate, from_values, monomials_of_degree
from superquad.errors import InputError
from superquad.linalg import inverse, nullspace, rank, rref, solve


def all_fractions(values) -> bool:
    return all(type(x) is Fraction for x in values)


def coefficients(c: Cochain) -> list:
    return [x for _, x in c.terms]


@pytest.mark.parametrize("key", catalog_keys())
def test_cohomology_values_are_fractions(key):
    q = build(key)
    results = betti_table(q, 2, verify=False)
    for res in results:
        for rep in res.representatives:
            assert all_fractions(coefficients(rep))
            vec = class_vector(q, rep, result=res)
            assert all_fractions(vec) and vec.count(1) == 1
    for k in range(2):
        d = differential_matrix(q, k, verify=False)
        assert all(all_fractions(col.values()) for col in d.columns)
        assert all(all_fractions(row) for row in d.entries)
    g = q.algebra if key in QUADRATIC_KEYS else q
    for m in monomials_of_degree(g.basis, 1):
        c = Cochain.from_terms(g.basis, {m: Fraction(1)})
        assert all_fractions(coefficients(differential_direct(g, c)))


@pytest.mark.parametrize("key", QUADRATIC_KEYS)
def test_quadratic_values_are_fractions(key):
    q = build(key)
    three = associated_three_form(q)
    assert all_fractions(coefficients(three))
    assert all_fractions(coefficients(poisson_bracket(q, three, three)) + [evaluate(three, (0, 0, 0))])
    for m in monomials_of_degree(q.basis, 1):
        c = Cochain.from_terms(q.basis, {m: Fraction(1)})
        assert all_fractions(coefficients(differential_via_poisson(q, c)))
    for degree in (0, 1):
        for d in skew_superderivation_space(q, degree):
            assert all(all_fractions(row) for row in d.matrix)
    d0 = skew_superderivation_space(q, 0)
    if d0:
        ext = one_dim_double_extension(q, d0[0])
        assert all(all_fractions(terms.values()) for terms in ext.algebra.constants.values())
        assert all(all_fractions(row) for row in ext.form.gram)


def test_linear_algebra_of_int_matrices_returns_fractions():
    m = [[2, 4, 1], [1, 2, 3], [0, 0, 5]]
    reduced, _ = rref(m)
    assert all(all_fractions(row) for row in reduced)
    sparse, _ = rref([{0: 2, 1: 4}, {1: 3}])
    assert all(all_fractions(row.values()) for row in sparse)
    assert all(all_fractions(v) for v in nullspace([[1, 1, 0], [0, 1, -1]]))
    assert all(all_fractions(row) for row in inverse([[1, 1], [0, 1]]))
    assert all_fractions(solve([[1, 0], [0, 1]], [3, 4]))


def test_float_matrix_entries_are_input_errors():
    for f in (rank, rref, nullspace):
        with pytest.raises(InputError, match="exact rationals"):
            f([[Fraction(1), 0.5]])


# one test per division site, each fed ints


def test_echelon_pivot_divides_through_fraction():
    reduced, pivots = rref([[2, 3]])
    assert reduced == [[1, Fraction(3, 2)]] and pivots == [0]
    assert all_fractions(reduced[0])
    assert nullspace([[2, 3]]) == [[Fraction(-3, 2), 1]]


def test_odd_square_halves_through_fraction():
    # [Y, Y] = X: delta(X*) = -1/2 Y*Y*, the odd square's coefficient halved
    basis = GradedBasis(labels=("X", "Y"), parities=(0, 1))
    g = LieSuperalgebra.from_index_table(basis, [(1, 1, {0: 1})])
    d = differential_direct(g, Cochain.dual(basis, "X"))
    assert d.terms == ((Monomial(even=(), odd=(1, 1)), Fraction(-1, 2)),)
    assert all_fractions(coefficients(d))


def test_values_divide_by_mult_factor_through_fraction():
    q = build("g_4_1_s")  # X0 Y0 | X1 Y1
    c = from_values(q.basis, 2, lambda args: 1)
    square = c.coefficient(Monomial(even=(), odd=(2, 2)))
    assert square == Fraction(1, 2) and all_fractions(coefficients(c))


def test_poisson_bracket_of_an_int_form_divides_through_fraction():
    # B(A, B) = 1 and B(U, V) = 2 given as ints: {u*, v*} = (G^-1)[u][v]
    basis = GradedBasis(labels=("A", "B", "U", "V"), parities=(0, 0, 1, 1))
    gram = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 2), (0, 0, -2, 0))
    q = QuadraticLieSuperalgebra(LieSuperalgebra(basis, {}), BilinearForm(basis, gram))
    a, b, u, v = (Cochain.dual(basis, label) for label in basis.labels)
    one = Cochain.unit(basis)
    assert poisson_bracket(q, a, b) == one
    assert poisson_bracket(q, u, v) == one.scale(Fraction(-1, 2))
    assert poisson_bracket(q, v, u) == one.scale(Fraction(1, 2))
    bracket = poisson_bracket(q, wedge(a, u), wedge(b, v))
    assert all_fractions(coefficients(bracket)) and Fraction(1, 2) in map(abs, coefficients(bracket))


def test_sp2_dependence_divides_through_fraction():
    mu, nu = check_commuting_dependence(Sp2Element(2, 4, 6), Sp2Element(1, 2, 3))
    assert (mu, nu) == (Fraction(1, 2), -1)
    assert all_fractions((mu, nu))
