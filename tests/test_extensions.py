"""Superderivations and double extensions."""
import random
from fractions import Fraction

import pytest

from helpers import QUADRATIC_KEYS, skew_superderivation_by_pairs
from superquad import build, validate_quadratic
from superquad.algebra import GradedBasis, LieSuperalgebra
from superquad.errors import InputError
from superquad.extensions import (
    ExtensionDatum,
    Superderivation,
    ad_superderivation,
    double_extension,
    is_skew_superderivation,
    is_superderivation,
    one_dim_double_extension,
    skew_superderivation_space,
    validate_extension_datum,
)
from superquad.linalg import rank
from superquad.quadratic import BilinearForm, QuadraticLieSuperalgebra


def abelian_quadratic() -> QuadraticLieSuperalgebra:
    basis = GradedBasis(labels=("A", "B", "U", "V"), parities=(0, 0, 1, 1))
    g = LieSuperalgebra(basis=basis, constants={})
    form = BilinearForm.from_pairs(
        basis, [("A", "A", 2), ("A", "B", 1), ("B", "B", 1), ("U", "V", 2)]
    )
    return QuadraticLieSuperalgebra(algebra=g, form=form)


def r2() -> LieSuperalgebra:
    """Two-dimensional non-abelian Lie algebra [a, b] = b."""
    basis = GradedBasis(labels=("a", "b"), parities=(0, 0))
    return LieSuperalgebra.from_label_table(
        basis, [("a", "b", {"b": Fraction(1)})]
    )


def hyperbolic_on_odds(q) -> Superderivation:
    """D(U) = U, D(V) = -V: even, skew for the symplectic odd pairing."""
    ne, n = q.basis.even_dim, q.basis.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[ne][ne] = Fraction(1)
    rows[ne + 1][ne + 1] = Fraction(-1)
    return Superderivation(
        matrix=tuple(tuple(r) for r in rows), degree=0
    )


def test_superderivation_validation_catches_grading():
    q = build("g_4_1_s")
    n = q.dim
    # an even map sending an even vector to an odd one breaks the grading
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[2][0] = Fraction(1)
    report = is_superderivation(
        q.algebra, tuple(tuple(r) for r in rows), 0
    )
    assert any(
        v.rule == "superderivation-grading" for v in report.violations
    )


def test_leibniz_violation_reported():
    g = r2()
    # the identity map is not a derivation of a non-abelian algebra
    rows = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    report = is_superderivation(g, rows, 0)
    assert any(
        v.rule == "superderivation-leibniz" for v in report.violations
    )


def test_skew_superderivation_space_dimensions():
    # frozen regressions, confirmed against the block-structure count:
    # on an abelian 2|2 algebra the even skew maps form so(2) + sp(2)
    # (dimension 1 + 3) and the odd ones have one free 2x2 block
    qa = abelian_quadratic()
    assert len(skew_superderivation_space(qa, 0)) == 4
    assert len(skew_superderivation_space(qa, 1)) == 4
    q = build("g_4_1_s")
    assert len(skew_superderivation_space(q, 0)) == 2
    assert len(skew_superderivation_space(q, 1)) == 2


def test_space_members_are_independent_and_valid():
    for q in (abelian_quadratic(), build("g_6_s")):
        for degree in (0, 1):
            space = skew_superderivation_space(q, degree)
            for d in space:
                assert is_skew_superderivation(q, d, degree).ok
            flat = [
                [d.matrix[i][j] for i in range(q.dim) for j in range(q.dim)]
                for d in space
            ]
            if flat:
                assert rank(flat) == len(space)


def test_ad_is_a_skew_superderivation():
    for key, label in (("g_6_1", "X1"), ("g_4_1_s", "X1"), ("g_8_2_5_s", "T")):
        q = build(key)
        d = ad_superderivation(q, label)
        parity = q.basis.parities[q.basis.index(label)]
        assert d.degree == parity
        assert is_skew_superderivation(q, d, parity).ok


def test_ad_lies_in_the_even_skew_space():
    q = build("g_4_1_s")
    space = skew_superderivation_space(q, 0)
    d = ad_superderivation(q, "X0")
    flat_space = [
        [s.matrix[i][j] for i in range(q.dim) for j in range(q.dim)]
        for s in space
    ]
    flat_d = [d.matrix[i][j] for i in range(q.dim) for j in range(q.dim)]
    assert rank(flat_space) == rank(flat_space + [flat_d])


def test_extension_datum_validation_failures():
    q = abelian_quadratic()
    h = r2()
    # psi must map into skew superderivations of matching degree
    bad = Superderivation(
        matrix=tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(4))
            for i in range(4)
        ),
        degree=0,
    )
    datum = ExtensionDatum(base=q, h=h, psi=(bad, bad))
    report = validate_extension_datum(datum)
    assert not report.ok
    rules = {v.rule for v in report.violations}
    assert any(r.startswith("psi") for r in rules)


def test_extension_datum_morphism_rule():
    q = abelian_quadratic()
    h = r2()
    d_a = hyperbolic_on_odds(q)
    zero = Superderivation(
        matrix=tuple(tuple(Fraction(0) for _ in range(4)) for _ in range(4)),
        degree=0,
    )
    # psi(a) = d_a, psi(b) = d_a: not a morphism since [a,b] = b requires
    # psi(b) = [psi(a), psi(b)] = 0
    datum = ExtensionDatum(base=q, h=h, psi=(d_a, d_a))
    report = validate_extension_datum(datum)
    assert any(v.rule == "psi-morphism" for v in report.violations)
    # psi(a) = d_a, psi(b) = 0 is a morphism
    good = ExtensionDatum(base=q, h=h, psi=(d_a, zero))
    assert validate_extension_datum(good).ok


def test_double_extension_by_r2():
    q = abelian_quadratic()
    h = r2()
    zero = Superderivation(
        matrix=tuple(tuple(Fraction(0) for _ in range(4)) for _ in range(4)),
        degree=0,
    )
    datum = ExtensionDatum(base=q, h=h, psi=(hyperbolic_on_odds(q), zero))
    out = double_extension(datum)
    assert validate_quadratic(out).ok
    assert out.dim == q.dim + 2 * h.dim
    labels = set(out.basis.labels)
    assert {"a", "b", "a*", "b*"} <= labels
    # pairing between h and its dual, base block unchanged
    ia, ias = out.basis.index("a"), out.basis.index("a*")
    ea = [Fraction(0)] * out.dim
    ea[ia] = Fraction(1)
    eas = [Fraction(0)] * out.dim
    eas[ias] = Fraction(1)
    assert out.form.value(ea, eas) == 1
    iu, iv = out.basis.index("U"), out.basis.index("V")
    eu = [Fraction(0)] * out.dim
    eu[iu] = Fraction(1)
    ev = [Fraction(0)] * out.dim
    ev[iv] = Fraction(1)
    assert out.form.value(eu, ev) == 2


def test_double_extension_with_odd_line():
    # h = one odd generator with [c, c] = 0; psi(c) an odd skew derivation
    q = abelian_quadratic()
    hb = GradedBasis(labels=("c",), parities=(1,))
    h = LieSuperalgebra(basis=hb, constants={})
    odd_space = skew_superderivation_space(q, 1)
    psi_c = odd_space[0]
    datum = ExtensionDatum(base=q, h=h, psi=(psi_c,))
    report = validate_extension_datum(datum)
    if report.ok:
        out = double_extension(datum)
        assert validate_quadratic(out).ok
        assert out.basis.odd_dim == q.basis.odd_dim + 2
    else:
        # psi([c,c]) = 0 needs [psi(c), psi(c)] = 0; not every odd skew
        # derivation qualifies, but some scaled representative must
        rules = {v.rule for v in report.violations}
        assert "psi-morphism" in rules


def test_one_dim_double_extension_matches_general_and_validates():
    rng = random.Random(5)
    q = abelian_quadratic()
    space = skew_superderivation_space(q, 0)
    for _ in range(10):
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in space]
        rows = [
            [
                sum(
                    (c * s.matrix[i][j] for c, s in zip(coeffs, space)),
                    Fraction(0),
                )
                for j in range(q.dim)
            ]
            for i in range(q.dim)
        ]
        d = Superderivation(
            matrix=tuple(tuple(r) for r in rows), degree=0
        )
        out = one_dim_double_extension(q, d)
        assert validate_quadratic(out).ok
        assert out.dim == q.dim + 2
        ie, if_ = out.basis.index("e"), out.basis.index("f")
        ee = [Fraction(0)] * out.dim
        ee[ie] = Fraction(1)
        ef = [Fraction(0)] * out.dim
        ef[if_] = Fraction(1)
        assert out.form.value(ee, ef) == 1


def test_one_dim_extension_rejects_non_skew():
    q = abelian_quadratic()
    rows = [[Fraction(0)] * q.dim for _ in range(q.dim)]
    rows[0][0] = Fraction(1)  # symmetric stretch: not skew for B
    d = Superderivation(matrix=tuple(tuple(r) for r in rows), degree=0)
    with pytest.raises(InputError, match="psi-"):
        one_dim_double_extension(q, d)


def test_one_dim_extension_checks_its_derivation_once(monkeypatch):
    import superquad.extensions as module

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return is_skew_superderivation(*args, **kwargs)

    monkeypatch.setattr(module, "is_skew_superderivation", counted)
    q = build("g_4_1_s")
    d = skew_superderivation_space(q, 0)[0]
    one_dim_double_extension(q, d)
    assert len(calls) == 1


def test_custom_labels_and_collision_rejection():
    q = abelian_quadratic()
    zero = Superderivation(
        matrix=tuple(tuple(Fraction(0) for _ in range(4)) for _ in range(4)),
        degree=0,
    )
    out = one_dim_double_extension(q, zero, labels=("P", "Q"))
    assert "P" in out.basis.labels and "Q" in out.basis.labels
    with pytest.raises(InputError):
        one_dim_double_extension(q, zero, labels=("A", "f"))


def test_skew_check_matches_dense_oracle_on_perturbed_space_elements():
    # elements of the skew superderivation space pass both checks; with one
    # matrix entry moved, the table-based check must give the dense
    # oracle's violation list exactly
    rules: set[str] = set()
    for key in QUADRATIC_KEYS:
        q = build(key)
        n = q.dim
        rng = random.Random(f"skew:{key}")
        for degree in (0, 1):
            for d in skew_superderivation_space(q, degree)[:4]:
                assert is_skew_superderivation(q, d, degree).violations == ()
                assert skew_superderivation_by_pairs(q, d) == []
                matrix = [list(row) for row in d.matrix]
                matrix[rng.randrange(n)][rng.randrange(n)] += rng.choice((-2, -1, 1, 3))
                bad = Superderivation(matrix=tuple(map(tuple, matrix)), degree=degree)
                expected = skew_superderivation_by_pairs(q, bad)
                assert list(is_skew_superderivation(q, bad, degree).violations) == expected
                rules.update(v.rule for v in expected)
    assert rules == {
        "superderivation-grading",
        "superderivation-leibniz",
        "skew-supersymmetry-of-derivation",
    }
