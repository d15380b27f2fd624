"""Exact types at the API: inside the kernels an integral value may be a
plain int, but every value the public API returns is a Fraction, never a
float or a bare int, and every division goes through Fraction so that
two ints never divide into a float."""
import importlib
from fractions import Fraction

import pytest

from helpers import QUADRATIC_KEYS, check_commuting_dependence, evaluate, gram_form
from superquad import (
    Cochain,
    GradedBasis,
    LieSuperalgebra,
    QuadraticLieSuperalgebra,
    Sp2Element,
    associated_three_form,
    betti_table,
    build,
    catalog_keys,
    class_vector,
    differential_direct,
    differential_matrix,
    differential_via_poisson,
    one_dim_double_extension,
    poisson_bracket,
    skew_superderivation_space,
    wedge,
)
from superquad.algebra import Subspace, center, derived_series
from superquad.cochains import Monomial, monomials_of_degree
from superquad.errors import InputError
from superquad.linalg import Echelon, rank


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
        # the form keeps its nonzeros in the kernels' form: an int, or a Fraction that is no integer
        assert all(x and (type(x) is int) == (x.denominator == 1) for row in ext.form.rows for x in row.values())


def half_scaled_g_4_1_s() -> QuadraticLieSuperalgebra:
    """g_4_1_s (X0 Y0 | X1 Y1) with its bracket halved, every value an int:
    [Y1, Y1] = -X0, [Y0, Y1] = -X1, B(X0, Y0) = B(X1, Y1) = 1."""
    basis = GradedBasis(labels=("X0", "Y0", "X1", "Y1"), parities=(0, 0, 1, 1))
    g = LieSuperalgebra.from_index_table(basis, [(3, 3, {0: -1}), (1, 3, {2: -1})])
    gram = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
    return QuadraticLieSuperalgebra(g, gram_form(basis, gram))


def test_linear_algebra_of_int_matrices_returns_fractions():
    q = half_scaled_g_4_1_s()
    z = center(q.algebra)
    spaces = [z, *derived_series(q.algebra)]
    spaces.append(Subspace.from_vectors(q.basis, [[2, 4, 1, 0], [1, 2, 3, 0], [0, 0, 5, 1]]))
    assert all(all_fractions(row) for space in spaces for row in space.rows)


def test_every_kernel_reads_zero_free_rows_in_the_kernels_form(monkeypatch):
    """reduced_kernel converts nothing: cohomology, center and
    skew_superderivation_space each hand it fresh {column: nonzero} rows in
    the kernels' form, and still return Fractions."""
    fed = []
    for name in ("cohomology", "algebra", "extensions"):
        module = importlib.import_module(f"superquad.{name}")

        def recorded(m, cols, original=module.reduced_kernel, name=name):
            fed.append(name)
            assert all(x and (type(x) is int) == (x.denominator == 1) for row in m for x in row.values()), name
            return original(m, cols)

        monkeypatch.setattr(module, "reduced_kernel", recorded)
    q = half_scaled_g_4_1_s()
    z = center(q.algebra)
    assert all_fractions(x for row in z.rows for x in row)
    derivations = skew_superderivation_space(q, 0) + skew_superderivation_space(q, 1)
    assert derivations and all(all_fractions(row) for d in derivations for row in d.matrix)
    assert all(all_fractions(coefficients(rep)) for r in betti_table(q, 2) for rep in r.representatives)
    assert set(fed) == {"cohomology", "algebra", "extensions"}


def test_float_matrix_entries_are_input_errors():
    # reduced_kernel takes rows already in the kernels' form, which only
    # the engine builds: rank is the entry point that converts a matrix
    with pytest.raises(InputError, match="exact rationals"):
        rank([[Fraction(1), 0.5]])


# one test per division site, each fed ints


def test_echelon_pivot_divides_through_fraction():
    echelon = Echelon([{0: 2, 1: 3}])
    assert echelon.rows == {0: {0: 1, 1: Fraction(3, 2)}}
    assert echelon.kernel(2) == [{1: 1, 0: Fraction(-3, 2)}]
    rows = Subspace.from_vectors(GradedBasis(labels=("a", "b"), parities=(0, 0)), [[2, 3]]).rows
    assert rows == ((1, Fraction(3, 2)),) and all_fractions(rows[0])


def test_odd_square_halves_through_fraction():
    # [Y, Y] = X: delta(X*) = -1/2 Y*Y*, the odd square's coefficient halved
    basis = GradedBasis(labels=("X", "Y"), parities=(0, 1))
    g = LieSuperalgebra.from_index_table(basis, [(1, 1, {0: 1})])
    d = differential_direct(g, Cochain.dual(basis, "X"))
    assert d.terms == ((Monomial(even=(), odd=(1, 1)), Fraction(-1, 2)),)
    assert all_fractions(coefficients(d))


def test_values_divide_by_mult_factor_through_fraction():
    # I on Y0 (x) Y1 Y1 is B([Y0, Y1], Y1) = -1 over the odd square's 2!
    three = associated_three_form(half_scaled_g_4_1_s())
    assert three.terms == ((Monomial(even=(1,), odd=(3, 3)), Fraction(-1, 2)),)
    assert all_fractions(coefficients(three))


def test_poisson_bracket_of_an_int_form_divides_through_fraction():
    # B(A, B) = 1 and B(U, V) = 2 given as ints: {u*, v*} = (G^-1)[u][v]
    basis = GradedBasis(labels=("A", "B", "U", "V"), parities=(0, 0, 1, 1))
    gram = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 2), (0, 0, -2, 0))
    q = QuadraticLieSuperalgebra(LieSuperalgebra(basis, {}), gram_form(basis, gram))
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
