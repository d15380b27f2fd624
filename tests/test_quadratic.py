"""Invariant bilinear forms."""
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    QUADRATIC_KEYS,
    count_validator_passes,
    dense_gram,
    form_pairs_dense,
    gram_form,
    perturbed,
    super_jacobi_by_triples,
    validate_form_by_triples,
    validate_form_by_union_walk,
)
from superquad import (
    Cochain,
    algebra_to_dict,
    associated_three_form,
    betti_table,
    build,
    catalog_keys,
    central_reduction,
    differential_matrix,
    differential_via_poisson,
    is_skew_superderivation,
    poisson_bracket,
    skew_superderivation_space,
)
from superquad.algebra import (
    GradedBasis,
    LieSuperalgebra,
    validate_lie_superalgebra,
    validate_super_jacobi,
)
from superquad.cli import main
from superquad.errors import InputError
from superquad.quadratic import (
    BilinearForm,
    QuadraticLieSuperalgebra,
    validate_form,
    validate_quadratic,
)


def abelian(labels, parities):
    basis = GradedBasis(labels=tuple(labels), parities=tuple(parities))
    return LieSuperalgebra(basis=basis, constants={})


def test_from_pairs_fills_supersymmetric_partner():
    basis = GradedBasis(labels=("a", "b"), parities=(0, 0))
    f = BilinearForm.from_pairs(basis, [("a", "b", 1)])
    assert dense_gram(f)[0][1] == 1 and dense_gram(f)[1][0] == 1

    basis_odd = GradedBasis(labels=("u", "v"), parities=(1, 1))
    f2 = BilinearForm.from_pairs(basis_odd, [("u", "v", 1)])
    assert dense_gram(f2)[0][1] == 1 and dense_gram(f2)[1][0] == -1  # antisymmetric on odds


def test_from_pairs_rejects_conflicting_entries():
    basis = GradedBasis(labels=("a", "b"), parities=(0, 0))
    with pytest.raises(InputError):
        BilinearForm.from_pairs(basis, [("a", "b", 1), ("b", "a", 2)])


def test_validate_form_even_rule():
    g = abelian(("a", "u"), (0, 1))
    gram = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    violations = validate_form(g, gram_form(g.basis, gram))
    assert any(v.rule == "even" for v in violations)


def test_validate_form_supersymmetry_rule():
    g = abelian(("u", "v"), (1, 1))
    gram = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]  # symmetric on odds: wrong
    violations = validate_form(g, gram_form(g.basis, gram))
    assert any(v.rule == "supersymmetry" for v in violations)


def test_validate_form_nondegenerate_rule():
    g = abelian(("a", "b"), (0, 0))
    gram = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]
    violations = validate_form(g, gram_form(g.basis, gram))
    assert any(v.rule == "nondegenerate" for v in violations)


def test_validate_form_invariance_rule():
    basis = GradedBasis(labels=("h", "x", "y"), parities=(0, 0, 0))
    g = LieSuperalgebra.from_label_table(
        basis,
        [
            ("h", "x", {"x": Fraction(2)}),
            ("h", "y", {"y": Fraction(-2)}),
            ("x", "y", {"h": Fraction(1)}),
        ],
    )
    # identity gram is symmetric and nondegenerate but not ad-invariant on sl2
    gram = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(3))
        for i in range(3)
    )
    violations = validate_form(g, gram_form(basis, gram))
    assert any(v.rule == "invariance" for v in violations)
    # the Killing-proportional form B(h,h)=2, B(x,y)=1 is invariant
    good = BilinearForm.from_pairs(basis, [("h", "h", 2), ("x", "y", 1)])
    assert validate_form(g, good) == []


# A, B | U, V with B(A, B) = B(U, V) = 1, then one fault each
FIVE_FAULTS = (
    ("even", {}, {(0, 2): 1, (2, 0): 1}),
    ("supersymmetry", {}, {(1, 0): 2}),
    ("nondegenerate", {}, {(2, 3): 0, (3, 2): 0}),
    ("invariance", {(0, 2): {2: Fraction(1)}}, {}),  # [A, U] = U
    ("skew", {(0, 0): {1: Fraction(1)}}, {}),  # [A, A] = B
)


@pytest.mark.parametrize("rule, constants, entries", FIVE_FAULTS)
def test_one_form_check_serves_every_entry_point(rule, constants, entries, tmp_path, capsys):
    basis = GradedBasis(labels=("A", "B", "U", "V"), parities=(0, 0, 1, 1))
    gram = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    for (i, j), x in entries.items():
        gram[i][j] = x
    g = LieSuperalgebra(basis=basis, constants=constants)
    q = QuadraticLieSuperalgebra(g, gram_form(basis, gram))
    a, b = Cochain.dual(basis, "A"), Cochain.dual(basis, "B")
    for call in (
        lambda: associated_three_form(q),
        lambda: poisson_bracket(q, a, b),
        lambda: differential_matrix(q, 1),
        lambda: betti_table(q, 1),
    ):
        with pytest.raises(InputError, match=f"quadratic algebra invalid: {rule} at"):
            call()
    # every nonzero Gram entry, so the loader sees the fault too
    doc = algebra_to_dict(q)
    doc["form"] = [
        {"left": basis.labels[i], "right": basis.labels[j], "value": str(x)}
        for i, row in enumerate(gram)
        for j, x in enumerate(row)
        if x
    ]
    path = tmp_path / "faulty.json"
    path.write_text(json.dumps(doc))
    assert main(["poisson", str(path)]) == 2
    err = capsys.readouterr().err
    # the loader fills B(y, x) from B(x, y), so a file cannot hold a form
    # that is not supersymmetric: it names the conflicting entries
    assert ("conflicting values" if rule == "supersymmetry" else f"invalid: {rule} at") in err


def test_validate_quadratic_accepts_all_catalog_forms():
    q = build("g_8_2_9_s")
    report = validate_quadratic(q)
    assert report.ok
    assert isinstance(q, QuadraticLieSuperalgebra)


def test_a_catalog_algebra_is_form_checked_once(monkeypatch):
    import superquad.quadratic as quadratic

    calls = []
    original = quadratic._form_check

    def counted(g, form, left):
        calls.append(g)
        return original(g, form, left)

    monkeypatch.setattr(quadratic, "_form_check", counted)
    q = build("g_8_2_5_s")
    betti_table(q, 2)
    assert calls == [q.algebra]
    assert validate_quadratic(q).ok and len(calls) == 1


def test_validate_quadratic_lists_grading_then_jacobi_then_form():
    for key in catalog_keys():
        rng = random.Random(f"validate_quadratic order:{key}")
        for _ in range(5):
            q = perturbed(key, rng)
            want = validate_lie_superalgebra(q.algebra).violations + tuple(validate_form(q.algebra, q.form))
            assert validate_quadratic(q).violations == want, key


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(QUADRATIC_KEYS),
    st.lists(
        st.tuples(
            st.integers(0, 11),
            st.integers(0, 11),
            st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3)]),
            st.booleans(),
        ),
        max_size=4,
    ),
)
def test_fuzzed_gram_entries_give_the_union_walks_violations(key, edits):
    """Gram entries moved, each alone or with its supersymmetric partner
    (so B stays even and supersymmetric, or stops being either): the form
    check reports the union walk's violations, in its order, word for word,
    read from the algebra's own B([e_i, e_j], .) too."""
    q = build(key)
    n, p = q.dim, q.basis.parities
    gram = [list(row) for row in dense_gram(q.form)]
    for i, j, value, paired in edits:
        i, j = i % n, j % n
        gram[i][j] = value
        if paired:
            gram[j][i] = -value if p[i] and p[j] else value
    form = gram_form(q.basis, gram)
    want = validate_form_by_union_walk(q.algebra, form)
    assert validate_form(q.algebra, form) == want
    assert validate_quadratic(QuadraticLieSuperalgebra(q.algebra, form)).violations == tuple(want)


def sparse_edit(q: QuadraticLieSuperalgebra, edits) -> BilinearForm:
    """q's form with entries moved: an edit (i, j, value, False) gives
    B(e_i, e_j) = value to ``from_pairs``, which fills in the partner (a
    zero value removes the pair), one with True, or one ``from_pairs``
    refuses (a nonzero on an odd diagonal), sets row i's entry j alone."""
    n, labels, p = q.dim, q.basis.labels, q.basis.parities
    given = {(i, j): x for i, row in enumerate(q.form.rows) for j, x in row.items() if i <= j}
    alone = {}
    for i, j, value, one_sided in edits:
        i, j = i % n, j % n
        if one_sided or (i == j and p[i] and value):
            alone[i, j] = value
        else:
            given.pop((j, i), None)
            given[i, j] = value
    form = BilinearForm.from_pairs(q.basis, [(labels[i], labels[j], x) for (i, j), x in given.items()])
    rows = [dict(row) for row in form.rows]
    for (i, j), value in alone.items():
        rows[i][j] = value
    return BilinearForm(q.basis, rows)


def assert_sparse_check_is_the_pair_walk(q: QuadraticLieSuperalgebra, form: BilinearForm) -> list:
    """The form check on the nonzero pairs gives the dense pair walk's
    evenness and supersymmetry violations, and the union walk's list, in
    their order, word for word; returns the form check's list."""
    got = validate_form(q.algebra, form)
    assert [v for v in got if v.rule in ("even", "supersymmetry")] == form_pairs_dense(q.basis, form)
    assert got == validate_form_by_union_walk(q.algebra, form)
    return got


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(QUADRATIC_KEYS),
    st.lists(
        st.tuples(
            st.integers(0, 11),
            st.integers(0, 11),
            st.sampled_from([0, 1, -1, Fraction(1, 2), 3]),
            st.booleans(),
        ),
        max_size=4,
    ),
)
def test_sparse_form_edits_give_the_dense_pair_walks_violations(key, edits):
    q = build(key)
    assert_sparse_check_is_the_pair_walk(q, sparse_edit(q, edits))


def test_the_sparse_pair_walk_sees_each_kind_of_fault():
    q = build("g_4_1_s")  # X0 Y0 | X1 Y1, B(X0, Y0) = B(X1, Y1) = 1
    cases = [
        # set only at (j, i), below the diagonal: B(X1, Y0) = 1, B(Y0, X1) = 0
        ([(2, 1, 1, True)], [("supersymmetry", ("Y0", "X1"))]),
        # set only at (j, i) within a block: B(Y0, X0) = 2 against B(X0, Y0) = 1
        ([(1, 0, 2, True)], [("supersymmetry", ("X0", "Y0"))]),
        # a nonzero between opposite parities, its partner filled in
        ([(0, 2, 1, False)], [("even", ("X0", "X1"))]),
        # a zero given in from_pairs: the pair is gone, and so is the rank
        ([(2, 3, 0, False)], [("nondegenerate", ())]),
    ]
    for edits, want in cases:
        got = assert_sparse_check_is_the_pair_walk(q, sparse_edit(q, edits))
        assert [(v.rule, v.witness) for v in got if v.rule != "invariance"] == want, edits
    with pytest.raises(InputError, match="conflicting values for B"):
        BilinearForm.from_pairs(q.basis, [("X0", "Y0", 0), ("Y0", "X0", 1)])


def test_validators_match_dense_oracles_on_perturbed_catalog():
    # every catalog key, one structure constant and one Gram entry moved per
    # seed: the bracket-table checks must give the dense loops' violation
    # lists, same rules, witnesses, messages and order
    rules: set[str] = set()
    reports = violations = 0
    for key in catalog_keys():
        rng = random.Random(f"validators:{key}")
        for _ in range(15):
            q = perturbed(key, rng)
            jacobi = super_jacobi_by_triples(q.algebra)
            form = validate_form_by_triples(q.algebra, q.form)
            assert validate_super_jacobi(q.algebra) == jacobi, key
            assert validate_form(q.algebra, q.form) == form, key
            rules.update(v.rule for v in jacobi + form)
            reports += 2
            violations += len(jacobi) + len(form)
    assert {"jacobi", "invariance", "even", "supersymmetry"} <= rules
    assert reports == 2 * 15 * len(catalog_keys()) and violations > reports


def test_validate_quadratic_checks_each_algebra_once(monkeypatch):
    passes = count_validator_passes(monkeypatch)
    rng = random.Random("validate once")
    for key in ("g_4_1_s", "g_8_2_5_s"):
        # build validates what it returns, so a later report is read, not rerun
        built = build(key)
        n = built.dim
        assert passes == {"jacobi": [n], "form": [n]}
        assert validate_quadratic(built).ok
        built.require_form()
        assert passes == {"jacobi": [n], "form": [n]}
        for q in (built, perturbed(key, rng)):
            # a new object with the same tables is checked in full, once
            twin = QuadraticLieSuperalgebra(
                algebra=LieSuperalgebra(basis=q.basis, constants=dict(q.algebra.constants)),
                form=BilinearForm(basis=q.basis, rows=q.form.rows),
            )
            passes["jacobi"].clear()
            passes["form"].clear()
            first = validate_quadratic(twin)
            assert validate_quadratic(twin) == first
            assert passes == {"jacobi": [n], "form": [n]}
        passes["jacobi"].clear()
        passes["form"].clear()


def test_float_gram_entries_are_rejected():
    q = build("g_4_1_s")
    gram = tuple(tuple(float(x) for x in row) for row in dense_gram(q.form))
    with pytest.raises(InputError):
        gram_form(q.basis, gram)


def test_one_inexact_gram_entry_among_fractions_is_rejected():
    q = build("g_4_1_s")
    for bad in (0.5, "9" * 5000, "1/0", "0.5"):
        gram = tuple(
            tuple(bad if (i, j) == (1, 2) else x for j, x in enumerate(row))
            for i, row in enumerate(dense_gram(q.form))
        )
        with pytest.raises(InputError):
            gram_form(q.basis, gram)
    # entries in the kernels' form are taken as they are, not coerced again
    form = BilinearForm(basis=q.basis, rows=q.form.rows)
    assert all(x is y for row, old in zip(form.rows, q.form.rows) for x, y in zip(row.values(), old.values()))


def test_gram_entries_are_normalised_to_the_kernels_form():
    q = build("g_4_1_s")
    gram = tuple(tuple(int(x) if x.denominator == 1 else str(x) for x in row) for row in dense_gram(q.form))
    form = gram_form(q.basis, gram)
    assert form == q.form and dense_gram(form) == dense_gram(q.form)
    assert all(type(x) is (int if x.denominator == 1 else Fraction) and x for row in form.rows for x in row.values())


@pytest.mark.parametrize(
    "call",
    [
        lambda h: poisson_bracket(h, 1, 1),
        lambda h: associated_three_form(h),
        lambda h: differential_via_poisson(h, 1),
        lambda h: skew_superderivation_space(h, 0),
        lambda h: is_skew_superderivation(h, [[0] * 3] * 3, 0),
        lambda h: central_reduction(h, "Z", "X1"),
    ],
    ids=[
        "poisson_bracket",
        "associated_three_form",
        "differential_via_poisson",
        "skew_superderivation_space",
        "is_skew_superderivation",
        "central_reduction",
    ],
)
def test_quadratic_entry_points_refuse_a_plain_algebra(call):
    with pytest.raises(InputError, match="needs a quadratic Lie superalgebra, not a LieSuperalgebra"):
        call(build("h"))


def test_a_form_on_another_basis_is_refused():
    g = abelian(("a", "b"), (0, 0))
    other = GradedBasis(labels=("a", "c"), parities=(0, 0))
    with pytest.raises(InputError, match="form and algebra must share one basis"):
        QuadraticLieSuperalgebra(algebra=g, form=BilinearForm.from_pairs(other, [("a", "c", 1)]))
