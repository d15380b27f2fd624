"""Superderivations and double extensions."""
import random
from fractions import Fraction

import pytest

from helpers import (
    QUADRATIC_KEYS,
    count_validator_passes,
    derivation_column,
    double_extension_dense,
    doubled_odd_form,
    form_value,
    perturbed,
    skew_superderivation_by_pairs,
)
from superquad import build, validate_quadratic
from superquad.algebra import GradedBasis, LieSuperalgebra, ValidationReport, Violation
from superquad.errors import EngineError, InputError
from superquad.extensions import (
    ExtensionDatum,
    Superderivation,
    _defects,
    ad_superderivation,
    central_reduction,
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


def odd_base() -> QuadraticLieSuperalgebra:
    """Abelian A, B | U, V with B(A, B) = B(U, V) = 1."""
    basis = GradedBasis(labels=("A", "B", "U", "V"), parities=(0, 0, 1, 1))
    g = LieSuperalgebra(basis=basis, constants={})
    form = BilinearForm.from_pairs(basis, [("A", "B", 1), ("U", "V", 1)])
    return QuadraticLieSuperalgebra(algebra=g, form=form)


def odd_line_psi() -> Superderivation:
    """psi(c): A -> U, V -> -B on ``odd_base``: odd, skew, and psi^2 = 0."""
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    rows[2][0] = Fraction(1)
    rows[1][3] = Fraction(-1)
    return Superderivation(matrix=tuple(tuple(r) for r in rows), degree=1)


def zero_map(n: int, degree: int) -> Superderivation:
    return Superderivation(
        matrix=tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n)),
        degree=degree,
    )


def seeded_even_skew(q, rng) -> Superderivation:
    """An integer combination of the degree-0 skew superderivation basis."""
    space = skew_superderivation_space(q, 0)
    coeffs = [rng.randint(-2, 2) for _ in space]
    return Superderivation(
        matrix=tuple(
            tuple(
                sum((c * s.matrix[i][j] for c, s in zip(coeffs, space)), Fraction(0))
                for j in range(q.dim)
            )
            for i in range(q.dim)
        ),
        degree=0,
    )


def assert_matches_dense_oracle(datum: ExtensionDatum) -> QuadraticLieSuperalgebra:
    out = double_extension(datum)
    reference = double_extension_dense(datum)
    assert out.basis == reference.basis
    assert out.algebra.constants == reference.algebra.constants
    assert out.form.gram == reference.form.gram
    return out


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


@pytest.mark.parametrize("degree", [1.0, 0.0, True, False, Fraction(1), 2, -1, "1"])
def test_the_z2_degree_is_the_int_0_or_1(degree):
    q = build("g_4_1_s")
    zeros = tuple((Fraction(0),) * q.dim for _ in range(q.dim))
    calls = (
        lambda: skew_superderivation_space(q, degree),
        lambda: Superderivation(matrix=zeros, degree=degree),
        lambda: is_superderivation(q.algebra, zeros, degree),
        lambda: is_skew_superderivation(q, zeros, degree),
        lambda: is_superderivation(q.algebra, Superderivation(matrix=zeros, degree=1), degree),
    )
    for call in calls:
        with pytest.raises(InputError, match="degree must be 0 or 1"):
            call()


# (dim, dim) of the degree-0 and degree-1 skew superderivation spaces at
# the default parameters, as in perfbench/reference.json
SKEW_DIMS = {
    "g_4_1_s": (2, 2),
    "g_4_2_s": (1, 2),
    "g_6_s": (5, 4),
    "g_6_1": (11, 0),
    "g_6_2": (8, 0),
    "g_6_3": (6, 0),
    "g_8_2_1_s": (9, 2),
    "g_8_2_2_s": (10, 6),
    "g_8_2_3_s": (9, 2),
    "g_8_2_4_s": (9, 6),
    "g_8_2_5_s": (7, 2),
    "g_8_2_6_s": (7, 2),
    "g_8_2_7_s": (7, 2),
    "g_8_2_8_s": (7, 4),
    "g_8_2_9_s": (6, 2),
    "g_dec": (14, 6),
}


def test_skew_superderivation_space_dimensions():
    # frozen regressions, confirmed against the block-structure count:
    # on an abelian 2|2 algebra the even skew maps form so(2) + sp(2)
    # (dimension 1 + 3) and the odd ones have one free 2x2 block
    qa = abelian_quadratic()
    assert len(skew_superderivation_space(qa, 0)) == 4
    assert len(skew_superderivation_space(qa, 1)) == 4
    assert sorted(SKEW_DIMS) == sorted(QUADRATIC_KEYS)
    for key, dims in SKEW_DIMS.items():
        q = build(key)
        assert tuple(len(skew_superderivation_space(q, d)) for d in (0, 1)) == dims, key


def test_skew_checks_need_a_form():
    g = build("h")
    for call in (
        lambda: is_skew_superderivation(g, zero_map(g.dim, 0), 0),
        lambda: skew_superderivation_space(g, 0),
    ):
        with pytest.raises(InputError, match="quadratic"):
            call()


def test_space_members_are_independent_and_valid():
    for q in (abelian_quadratic(), build("g_6_s")):
        for degree in (0, 1):
            space = skew_superderivation_space(q, degree)
            for d in space:
                assert d.degree == degree
                assert skew_superderivation_by_pairs(q, d) == []
            flat = [
                [d.matrix[i][j] for i in range(q.dim) for j in range(q.dim)]
                for d in space
            ]
            if flat:
                assert rank(flat) == len(space)


def test_every_defect_value_is_in_the_kernels_form():
    """unit(r, s) gives reduced_kernel an int wherever a value is integral,
    also where fractional terms sum to an integer."""
    for key in QUADRATIC_KEYS:
        q = build(key)
        for degree in (0, 1):
            unit = _defects(q, degree)
            values = [x for r in range(q.dim) for s in range(q.dim) for x in unit(r, s).values()]
            assert all(x and (type(x) is int) == (x.denominator == 1) for x in values), (key, degree)


def test_ad_is_a_skew_superderivation():
    for key, label in (("g_6_1", "X1"), ("g_4_1_s", "X1"), ("g_8_2_5_s", "T")):
        q = build(key)
        d = ad_superderivation(q, label)
        parity = q.basis.parities[q.basis.index(label)]
        assert d.degree == parity
        assert is_skew_superderivation(q, d, parity).ok
        x = q.algebra.basis_vector(q.basis.index(label))
        for j in range(q.dim):
            assert derivation_column(d, j) == q.algebra.bracket(x, q.algebra.basis_vector(j))


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
    assert form_value(out.form, ea, eas) == 1
    iu, iv = out.basis.index("U"), out.basis.index("V")
    eu = [Fraction(0)] * out.dim
    eu[iu] = Fraction(1)
    ev = [Fraction(0)] * out.dim
    ev[iv] = Fraction(1)
    assert form_value(out.form, eu, ev) == 2


def test_double_extension_with_odd_line():
    # h = one odd generator with [c, c] = 0; psi(c) an odd skew derivation
    # with psi(c)^2 = 0, so that psi is a morphism
    q = odd_base()
    h = LieSuperalgebra(basis=GradedBasis(labels=("c",), parities=(1,)), constants={})
    datum = ExtensionDatum(base=q, h=h, psi=(odd_line_psi(),))
    assert validate_extension_datum(datum).ok
    out = assert_matches_dense_oracle(datum)
    assert validate_quadratic(out).ok
    assert out.basis.odd_dim == q.basis.odd_dim + 2


def test_double_extension_matches_the_dense_oracle():
    rng = random.Random("double-extension-oracle")
    q = abelian_quadratic()
    zero = zero_map(q.dim, 0)
    d_a = hyperbolic_on_odds(q)
    h = r2()
    r2_gamma = BilinearForm(basis=h.basis, gram=((Fraction(3), Fraction(0)), (Fraction(0), Fraction(0))))
    # h = span{a | c} with [a, c] = c, psi(c) = 0
    ac_basis = GradedBasis(labels=("a", "c"), parities=(0, 1))
    ac = LieSuperalgebra.from_label_table(ac_basis, [("a", "c", {"c": 1})])
    data = [
        ExtensionDatum(base=q, h=h, psi=(d_a, zero)),
        ExtensionDatum(base=q, h=h, psi=(d_a, zero), gamma=r2_gamma),
        ExtensionDatum(base=q, h=ac, psi=(d_a, zero_map(q.dim, 1))),
    ]
    line = LieSuperalgebra(basis=GradedBasis(labels=("e0",), parities=(0,)), constants={})
    for key in QUADRATIC_KEYS:
        base = build(key)
        gamma = BilinearForm(basis=line.basis, gram=((Fraction(rng.randint(-2, 2)),),))
        data.append(ExtensionDatum(base=base, h=line, psi=(seeded_even_skew(base, rng),), gamma=gamma))
    for datum in data:  # the odd line is test_double_extension_with_odd_line's
        assert validate_extension_datum(datum).ok
        assert_matches_dense_oracle(datum)


def test_central_reduction_inverts_the_one_dimensional_extension():
    rng = random.Random("central-reduction")
    for key in QUADRATIC_KEYS:
        q = build(key)
        d = seeded_even_skew(q, rng)
        base, deriv = central_reduction(
            one_dim_double_extension(q, d, labels=("E", "F")), "F", "E"
        )
        assert base.basis == q.basis, key
        assert base.algebra.constants == q.algebra.constants, key
        assert base.form.gram == q.form.gram, key
        assert deriv.matrix == d.matrix and deriv.degree == 0, key


def test_extension_certificates_fire(monkeypatch):
    import superquad.extensions as module

    q = build("g_8_2_3_s")
    d = skew_superderivation_space(q, 0)[0]
    general, one_dim = module._assemble, module.one_dim_double_extension
    # the general path fed psi = 0 disagrees with the direct formulas
    monkeypatch.setattr(
        module, "_assemble",
        lambda datum: general(ExtensionDatum(base=q, h=datum.h, psi=(zero_map(q.dim, 0),))),
    )
    with pytest.raises(EngineError, match="disagree"):
        one_dim_double_extension(q, d)
    monkeypatch.undo()
    # an extension by D = 0 does not rebuild q
    monkeypatch.setattr(
        module, "one_dim_double_extension",
        lambda base, deriv, labels: one_dim(base, zero_map(base.dim, 0), labels=labels),
    )
    with pytest.raises(EngineError, match="rebuild"):
        central_reduction(q, "Z3", "X3")


def test_an_invalid_base_is_an_input_error():
    # the datum (psi = 0) is valid, so the output fails only because the
    # base does, and the base is blamed
    bad = doubled_odd_form()
    with pytest.raises(InputError, match="extension base invalid: invariance"):
        one_dim_double_extension(bad, zero_map(bad.dim, 0))
    rng = random.Random("invalid base")
    invalid = 0
    for key in QUADRATIC_KEYS:
        q = perturbed(key, rng)
        if not validate_quadratic(q).ok:
            invalid += 1
            with pytest.raises(InputError):
                one_dim_double_extension(q, zero_map(q.dim, 0))
    assert invalid > len(QUADRATIC_KEYS) // 2


def test_a_valid_base_with_an_invalid_output_is_an_engine_error(monkeypatch):
    import superquad.extensions as module

    q = build("g_4_1_s")
    real = module.validate_quadratic
    broken = ValidationReport((Violation(rule="jacobi", witness=(), message="forced"),))
    monkeypatch.setattr(module, "validate_quadratic", lambda x: real(x) if x is q else broken)
    with pytest.raises(EngineError, match="failed validation"):
        one_dim_double_extension(q, zero_map(q.dim, 0))


def test_central_reduction_of_an_invalid_algebra_is_an_input_error():
    # q is validated only when the rebuild fails; an invalid q must still
    # end as InputError, wherever it is caught
    rng = random.Random("invalid reduction")
    rebuilt = 0
    for _ in range(4):
        for i in range(1, 10):
            q = perturbed(f"g_8_2_{i}_s", rng)
            if validate_quadratic(q).ok:
                continue
            with pytest.raises(InputError) as caught:
                central_reduction(q, "Z3", "X3")
            rebuilt += "needs a valid" in str(caught.value)
    assert rebuilt


def test_central_reduction_rejects_unadapted_pairs():
    q = build("g_8_2_5_s")
    for z, x, match in (
        ("X3", "Z3", "not central"),  # X3 acts on Z1
        ("Z3", "Y", "even"),  # an odd label
        ("Z3", "Z1", "isotropic"),  # B(Z1, Z3) = 0
        ("Z3", "W", "unknown basis label"),
        ("Q", "X3", "unknown basis label"),
    ):
        with pytest.raises(InputError, match=match):
            central_reduction(q, z, x)
    # B(x, z) = 2: the right vectors, scaled
    ext = one_dim_double_extension(abelian_quadratic(), zero_map(4, 0))
    doubled = BilinearForm(
        basis=ext.basis,
        gram=tuple(
            tuple(2 * v if {i, j} == {0, 3} else v for j, v in enumerate(row))
            for i, row in enumerate(ext.form.gram)
        ),
    )
    with pytest.raises(InputError, match="isotropic"):
        central_reduction(QuadraticLieSuperalgebra(algebra=ext.algebra, form=doubled), "f", "e")
    with pytest.raises(InputError, match="quadratic"):
        central_reduction(build("h"), "Z", "X1")


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
        assert form_value(out.form, ee, ef) == 1


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


def test_one_dim_extension_validates_its_output_once(monkeypatch):
    # the direct and general outputs have equal tables, so one of them is
    # validated, once, and the returned algebra keeps that result
    q = build("g_8_2_5_s")
    d = skew_superderivation_space(q, 0)[-1]
    checked = count_validator_passes(monkeypatch)
    out = one_dim_double_extension(q, d)
    # one pass each on the (n + 2)-dimensional output; h = C e is checked too
    assert sorted(checked["jacobi"]) == [1, q.dim + 2] and checked["form"] == [q.dim + 2]
    assert validate_quadratic(out).ok
    out.require_form()
    assert sorted(checked["jacobi"]) == [1, q.dim + 2] and checked["form"] == [q.dim + 2]


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
            for d in skew_superderivation_space(q, degree):
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


def _even_line(label: str = "Z") -> LieSuperalgebra:
    return LieSuperalgebra(basis=GradedBasis(labels=(label,), parities=(0,)), constants={})


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda q: is_superderivation(q.algebra, zero_map(q.dim, 0), 1),
            "degree argument disagrees with the Superderivation",
            id="derivation-degree",
        ),
        pytest.param(
            lambda q: ExtensionDatum(base=q, h=_even_line(), psi=()),
            "psi must assign one derivation per h basis vector",
            id="psi-length",
        ),
        pytest.param(
            lambda q: validate_extension_datum(ExtensionDatum(base=q, h=_even_line(), psi=(zero_map(q.dim + 1, 0),))),
            "psi matrices must match the base dimension",
            id="psi-size",
        ),
        pytest.param(
            lambda q: validate_extension_datum(
                ExtensionDatum(
                    base=q, h=_even_line(), psi=(zero_map(q.dim, 0),),
                    gamma=BilinearForm(_even_line("W").basis, ((1,),)),
                )
            ),
            "gamma must be a bilinear form on the h basis",
            id="gamma-basis",
        ),
        pytest.param(
            lambda q: one_dim_double_extension(q, zero_map(q.dim, 1)),
            "a 1-dimensional double extension needs an even map",
            id="one_dim-odd",
        ),
    ],
)
def test_extension_inputs_of_the_wrong_shape_are_refused(call, message):
    with pytest.raises(InputError, match=message):
        call(build("g_4_1_s"))


def test_the_direct_and_general_gram_matrices_are_compared(monkeypatch):
    import superquad.extensions as module

    q = build("g_8_2_3_s")
    d = skew_superderivation_space(q, 0)[0]
    general = module._assemble
    # gamma(e, e) = 1 moves one Gram entry of the general output and no bracket
    monkeypatch.setattr(
        module, "_assemble",
        lambda datum: general(
            ExtensionDatum(base=datum.base, h=datum.h, psi=datum.psi, gamma=BilinearForm(datum.h.basis, ((1,),)))
        ),
    )
    with pytest.raises(EngineError, match="disagree"):
        one_dim_double_extension(q, d)


def test_a_psi_of_the_wrong_degree_is_a_violation():
    q = build("g_4_1_s")
    report = validate_extension_datum(ExtensionDatum(base=q, h=_even_line(), psi=(zero_map(q.dim, 1),)))
    assert [(v.rule, v.witness, v.message) for v in report.violations] == [
        ("psi-degree", ("Z",), "psi(Z) has degree 1, expected the parity 0")
    ]


def test_a_gamma_that_is_not_supersymmetric_is_a_violation():
    q = build("g_4_1_s")
    h = LieSuperalgebra(basis=GradedBasis(labels=("Z", "W"), parities=(0, 0)), constants={})
    gamma = BilinearForm(h.basis, ((0, 1), (0, 0)))
    report = validate_extension_datum(ExtensionDatum(base=q, h=h, psi=(zero_map(q.dim, 0),) * 2, gamma=gamma))
    assert [(v.rule, v.witness) for v in report.violations] == [("gamma-supersymmetry", ("Z", "W"))]
    assert report.violations[0].message.startswith("gamma: B(W, Z) != ")
