"""Structure constants, axiom validation, and structural invariants."""
import random
from fractions import Fraction

import pytest

from helpers import (
    QUADRATIC_KEYS,
    basis_vector,
    bracket,
    count_validator_passes,
    dense_gram,
    derived_series_dense,
    perturbed,
    random_table_algebra,
    super_jacobi_by_table_triples,
)
from superquad import build, catalog_keys, is_superderivation, validate_quadratic
from superquad.algebra import (
    GradedBasis,
    LieSuperalgebra,
    Subspace,
    center,
    derived_series,
    diagonal_weights,
    inner_torus,
    is_solvable,
    reorder_basis,
    validate_lie_superalgebra,
    validate_super_jacobi,
)
from superquad.errors import InputError
from superquad.linalg import rank
from superquad.quadratic import reorder_quadratic


def test_basis_requires_evens_before_odds():
    with pytest.raises(InputError):
        GradedBasis(labels=("a", "b"), parities=(1, 0))


def test_basis_rejects_duplicate_labels():
    with pytest.raises(InputError):
        GradedBasis(labels=("a", "a"), parities=(0, 0))


@pytest.mark.parametrize("bad", [True, 1.0, False, 0.0, Fraction(1)], ids=repr)
def test_basis_parities_are_the_ints_0_and_1(bad):
    with pytest.raises(InputError, match="parities must be 0 or 1"):
        GradedBasis(labels=("a", "b"), parities=(0, bad))


def test_basis_index_unknown_label():
    basis = GradedBasis(labels=("a",), parities=(0,))
    with pytest.raises(InputError):
        basis.index("zz")


def test_basis_keeps_even_dim_out_of_eq_hash_and_repr():
    read, fresh = (GradedBasis(labels=("a", "b", "s"), parities=(0, 0, 1)) for _ in range(2))
    assert read.even_dim == 2 and read.__dict__["even_dim"] == 2  # counted once, then kept
    assert read.index("s") == 2 and read.__dict__["_positions"] == {"a": 0, "b": 1, "s": 2}
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert "even_dim" not in repr(read) and "_positions" not in repr(read)
    for label in ("c", 0, ["a"], None):
        with pytest.raises(InputError, match="unknown basis label"):
            read.index(label)


def test_from_index_table_rejects_duplicate_pairs():
    basis = GradedBasis(labels=("a", "b", "c"), parities=(0, 0, 0))
    rows = [
        (0, 1, {2: Fraction(1)}),
        (1, 0, {2: Fraction(1)}),
    ]
    with pytest.raises(InputError):
        LieSuperalgebra.from_index_table(basis, rows)


def test_from_index_table_folds_reversed_even_rows_by_sign():
    basis = GradedBasis(labels=("a", "b", "c"), parities=(0, 0, 0))
    g1 = LieSuperalgebra.from_index_table(basis, [(0, 1, {2: Fraction(1)})])
    g2 = LieSuperalgebra.from_index_table(basis, [(1, 0, {2: Fraction(-1)})])
    assert g1.constants == g2.constants


def sl2() -> LieSuperalgebra:
    basis = GradedBasis(labels=("h", "x", "y"), parities=(0, 0, 0))
    return LieSuperalgebra.from_label_table(
        basis,
        [
            ("h", "x", {"x": Fraction(2)}),
            ("h", "y", {"y": Fraction(-2)}),
            ("x", "y", {"h": Fraction(1)}),
        ],
    )


def test_bracket_pair_reversal_signs():
    # even-even reverses with a minus sign
    g = sl2()
    assert g.bracket_pair(1, 2) == {0: Fraction(1)}
    assert g.bracket_pair(2, 1) == {0: Fraction(-1)}
    # odd-odd reverses with a plus sign
    q = build("g_8_2_5_s")
    a = q.algebra
    i, j = a.basis.index("Y"), a.basis.index("T")
    oo = a.bracket_pair(i, j)
    assert oo and a.bracket_pair(j, i) == oo


def test_derived_series_matches_the_dense_oracle_on_every_key():
    for key in catalog_keys():
        obj = build(key)
        series = derived_series(obj)
        assert series == derived_series_dense(getattr(obj, "algebra", obj)), key
        assert all(type(x) is Fraction for space in series for row in space.rows for x in row), key


def test_bracket_of_coordinate_vectors():
    g = sl2()
    x = [Fraction(0), Fraction(1), Fraction(0)]
    y = [Fraction(0), Fraction(0), Fraction(1)]
    assert bracket(g, x, y) == [Fraction(1), Fraction(0), Fraction(0)]
    assert bracket(g, y, x) == [Fraction(-1), Fraction(0), Fraction(0)]


def test_validator_accepts_sl2():
    g = sl2()
    assert validate_lie_superalgebra(g).ok
    assert not is_solvable(g)
    assert center(g).dim == 0


def test_validator_reports_jacobi_violation_with_witness():
    basis = GradedBasis(labels=("a", "b", "c"), parities=(0, 0, 0))
    g = LieSuperalgebra.from_label_table(
        basis,
        [
            ("a", "b", {"c": Fraction(1)}),
            ("b", "c", {"a": Fraction(1)}),
            ("c", "a", {"c": Fraction(1)}),
        ],
    )
    report = validate_lie_superalgebra(g)
    assert not report.ok
    rules = {v.rule for v in report.violations}
    assert "jacobi" in rules
    witness = next(v for v in report.violations if v.rule == "jacobi").witness
    assert len(witness) == 3


def test_sparse_super_jacobi_matches_the_triple_loop():
    # the nonzero double brackets, each counted once per cyclic rotation of
    # its sorted triple, must give the triple loop's violations exactly:
    # same triples in the same order, same witnesses and residuals
    rng = random.Random("sparse jacobi")
    valid = violating = 0
    for _ in range(600):
        g = random_table_algebra(rng)
        want = super_jacobi_by_table_triples(g)
        assert validate_super_jacobi(g) == want, g
        valid += not want
        violating += bool(want)
    assert valid > 100 and violating > 100
    for key in catalog_keys():
        obj = build(key)
        g = getattr(obj, "algebra", obj)
        assert validate_super_jacobi(g) == super_jacobi_by_table_triples(g) == [], key
        rng = random.Random(f"sparse jacobi:{key}")
        for _ in range(3):
            bad = perturbed(key, rng).algebra
            assert validate_super_jacobi(bad) == super_jacobi_by_table_triples(bad), key


def test_super_jacobi_runs_once_per_algebra(monkeypatch):
    calls = count_validator_passes(monkeypatch)["jacobi"]
    g = LieSuperalgebra.from_label_table(
        GradedBasis(labels=("a", "b", "c"), parities=(0, 0, 0)),
        [("a", "b", {"c": 1}), ("b", "c", {"a": 1}), ("c", "a", {"c": 1})],
    )
    first = validate_lie_superalgebra(g)
    assert validate_lie_superalgebra(g) == first and not first.ok
    assert len(calls) == 1
    # an equal but new object is checked again
    twin = LieSuperalgebra(basis=g.basis, constants=dict(g.constants))
    assert validate_lie_superalgebra(twin) == first
    assert len(calls) == 2


def test_validator_reports_grading_violation():
    # bracket of two evens landing on an odd generator
    basis = GradedBasis(labels=("a", "b", "u"), parities=(0, 0, 1))
    g = LieSuperalgebra.from_label_table(
        basis, [("a", "b", {"u": Fraction(1)})]
    )
    report = validate_lie_superalgebra(g)
    assert any(v.rule == "grading" for v in report.violations)


def test_validator_reports_skew_violation_on_even_square():
    # [a,a] != 0 for an even generator violates skew-supersymmetry
    basis = GradedBasis(labels=("a", "b"), parities=(0, 0))
    g = LieSuperalgebra.from_index_table(
        basis, [(0, 0, {1: Fraction(1)})]
    )
    report = validate_lie_superalgebra(g)
    assert any(v.rule == "skew" for v in report.violations)


def test_center_and_derived_series_heisenberg():
    g = build("h")  # defaults n=1, m=0: three-dimensional, center = span{Z}
    assert is_solvable(g)
    assert center(g).dim == 1
    series = derived_series(g)
    assert [s.dim for s in series][:3] == [g.dim, 1, 0]


@pytest.mark.parametrize("key", ["g_4_1_s", "g_6_2", "g_8_2_5_s"])
def test_center_accepts_a_quadratic_algebra(key):
    q = build(key)
    assert center(q) == center(q.algebra) and center(q).dim > 0


@pytest.mark.parametrize("key", ["g_4_1_s", "g_6_2", "g_8_2_5_s"])
def test_derived_series_accepts_a_quadratic_algebra(key):
    q = build(key)
    assert derived_series(q) == derived_series(q.algebra)


def test_is_solvable_accepts_a_quadratic_algebra():
    for key in ("g_4_1_s", "g_6_2", "g_8_2_5_s"):
        q = build(key)
        assert is_solvable(q) == is_solvable(q.algebra)


def test_inner_torus_of_the_catalog():
    """ad x diagonal with a nonzero weight: Y0 in g_4_2_s, X3 in the
    others, and on no other key at default parameters."""
    found = {}
    for key in catalog_keys():
        obj = build(key)
        g = getattr(obj, "algebra", obj)
        torus = inner_torus(obj)
        assert torus == inner_torus(g)
        for x, w in torus:
            vector = [Fraction(x.get(i, 0)) for i in range(g.dim)]
            for t in range(g.dim):
                assert bracket(g, vector, basis_vector(g, t)) == [w[t] * v for v in basis_vector(g, t)]
        if torus:
            found[key] = [{g.basis.labels[i]: a for i, a in x.items()} for x, _ in torus]
    assert found == {
        "g_4_2_s": [{"Y0": 1}],
        "g_6_2": [{"X3": 1}],
        "g_8_2_4_s": [{"X3": 1}],
        "g_8_2_5_s": [{"X3": 1}],
        "g_8_2_6_s": [{"X3": 1}],
    }
    # central x have all weights 0 and are left out
    assert inner_torus(build("h")) == []


def test_subspace_membership():
    basis = GradedBasis(labels=("a", "b"), parities=(0, 0))
    s = Subspace.from_vectors(basis, [[Fraction(2), Fraction(2)], [Fraction(1), Fraction(1)]])
    assert s.dim == 1 and s.rows == ((Fraction(1), Fraction(1)),)
    assert rank([*s.rows, [Fraction(2), Fraction(2)]]) == s.dim
    assert rank([*s.rows, [Fraction(1), Fraction(0)]]) > s.dim


def test_a_subspace_built_by_hand_is_the_reduced_span_of_its_rows():
    basis = GradedBasis(labels=("a", "b"), parities=(0, 0))
    s = Subspace(basis, ((2, 0), (2, 0)))
    assert s.dim == 1 and s.rows == ((Fraction(1), Fraction(0)),)
    assert s == Subspace.from_vectors(basis, ((2, 0), (2, 0))) and hash(s) == hash(Subspace.from_vectors(basis, [[1, 0]]))
    # rows out of order, unreduced or zero: the same span, the same subspace
    assert Subspace(basis, ((0, 3), (1, 1), (0, 0))) == Subspace(basis, ((1, 0), (0, 1)))
    assert Subspace(basis, ((0, 0),)) == Subspace(basis, ()) and Subspace(basis, ()).dim == 0


def test_a_subspace_refuses_vectors_that_do_not_fit_its_ambient():
    basis = GradedBasis(labels=("a", "b"), parities=(0, 0))
    with pytest.raises(InputError, match="length 3 in a space of dimension 2"):
        Subspace.from_vectors(basis, [[0, 0, 1]])
    with pytest.raises(InputError, match="length 1 in a space of dimension 2"):
        Subspace(basis, ((Fraction(1),),))
    for junk in ("junk", 5, None, {0: 1}):
        with pytest.raises(InputError, match="iterable of sequences"):
            Subspace(basis, junk)
        with pytest.raises(InputError, match="iterable of sequences"):
            Subspace.from_vectors(basis, junk)
    for row in ("ab", {0: 1, 1: 0}, 7):
        with pytest.raises(InputError, match="sequence of exact rationals"):
            Subspace.from_vectors(basis, [row])
    for row in ((0.5, 1), (True, 0), ("1", 0), (None, 0)):
        with pytest.raises(InputError, match="exact rationals"):
            Subspace(basis, (row,))
        with pytest.raises(InputError, match="exact rationals"):
            Subspace.from_vectors(basis, [row])
    for ambient in (("a", "b"), None, build("g_6_s")):
        with pytest.raises(InputError, match="must be a GradedBasis"):
            Subspace(ambient, ())
        with pytest.raises(InputError, match="must be a GradedBasis"):
            Subspace.from_vectors(ambient, [])
    # ints are read as Fractions, and a well-formed subspace builds as before
    s = Subspace(basis, ((1, 0),))
    assert s.rows == ((Fraction(1), Fraction(0)),) and all(type(x) is Fraction for x in s.rows[0])
    assert Subspace.from_vectors(basis, ([2, 0], (0, Fraction(1, 2)))).rows == ((1, 0), (0, 1))


def test_reorder_quadratic_round_trip():
    q = build("g_6_1")
    labels = list(q.basis.labels)
    shuffled = list(reversed(labels[:3])) + labels[3:]
    q2 = reorder_quadratic(q, shuffled)
    assert validate_quadratic(q2).ok
    back = reorder_quadratic(q2, labels)
    assert back.algebra.constants == q.algebra.constants
    assert dense_gram(back.form) == dense_gram(q.form)


# rank of the torus of diagonal derivations, per catalog key at default parameters
TORUS_RANK = {
    "h": 2,
    "g_4_1_s": 2,
    "g_4_2_s": 2,
    "g_6_s": 3,
    "g_6_1": 3,
    "g_6_2": 3,
    "g_6_3": 2,
    "g_8_2_1_s": 3,
    "g_8_2_2_s": 1,
    "g_8_2_3_s": 3,
    "g_8_2_4_s": 4,
    "g_8_2_5_s": 3,
    "g_8_2_6_s": 2,
    "g_8_2_7_s": 2,
    "g_8_2_8_s": 3,
    "g_8_2_9_s": 2,
    "g_dec": 5,
}


@pytest.mark.parametrize("key", catalog_keys())
def test_diagonal_weights_are_derivation_weights(key):
    q = build(key)
    g = getattr(q, "algebra", q)
    weights = diagonal_weights(g)
    r = TORUS_RANK[key]
    assert len(weights) == g.dim and all(len(w) == r + 1 for w in weights)
    assert [w[-1] for w in weights] == list(g.basis.parities)
    lams = [[w[s] for w in weights] for s in range(r)]
    assert rank(lams) == r  # an exact basis: independent weights
    for lam in lams:
        for (i, j), terms in g.constants.items():
            for t in terms:
                assert lam[i] + lam[j] == lam[t], (lam, i, j, t)
        diag = [[lam[i] if i == j else 0 for j in range(g.dim)] for i in range(g.dim)]
        assert is_superderivation(g, diag, 0).ok


@pytest.mark.parametrize("key", QUADRATIC_KEYS)
def test_diagonal_weights_read_a_quadratic_algebra_as_its_lie_superalgebra(key):
    q = build(key)
    assert diagonal_weights(q) == diagonal_weights(q.algebra)


def test_a_constant_must_be_a_fraction():
    basis = GradedBasis(labels=("a", "b"), parities=(0, 0))
    with pytest.raises(InputError, match=r"constant for \(0, 1\)->1 must be a nonzero Fraction"):
        LieSuperalgebra(basis=basis, constants={(0, 1): {1: 1}})


def test_reorder_basis_needs_the_same_labels():
    g = build("h")
    labels = ("nope", *g.basis.labels[1:])
    with pytest.raises(InputError, match="new order must be a permutation of the basis labels"):
        reorder_basis(g, labels)
