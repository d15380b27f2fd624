"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Each test prints one ``ACCEPTANCE Cn <name> ... PASS/FAIL`` line via the
hook in conftest.py.  Frozen numbers in this file were derived with
independent oracles (dimension counts, Leibniz recursions, block
constructions) before being committed here.
"""
import random
from fractions import Fraction

from helpers import (
    QUADRATIC_KEYS,
    bidegree,
    check_commuting_dependence,
    check_eigenvector_relation,
    koszul,
    mono,
    random_homogeneous,
)
from superquad import build, validate_quadratic
from superquad.algebra import GradedBasis, LieSuperalgebra, is_solvable
from superquad.catalog import reconstruction_datum
from superquad.cochains import (
    Cochain,
    associated_three_form,
    differential_direct,
    differential_via_poisson,
    monomials_of_degree,
    poisson_bracket,
    wedge,
)
from superquad.cohomology import (
    betti_table,
    class_vector,
    cohomology,
    differential_matrix,
    is_coboundary,
    is_cocycle,
)
from superquad.extensions import (
    ExtensionDatum,
    Superderivation,
    double_extension,
    one_dim_double_extension,
    skew_superderivation_space,
    validate_extension_datum,
)
from superquad.linalg import rank
from superquad.quadratic import BilinearForm, reorder_quadratic
from superquad.sp2 import (
    H,
    Sp2Element,
    X,
    Y,
    commutator,
)


def test_c01_betti_regression():
    """b_2 of the three elementary quadratic families, end to end."""
    assert cohomology(build("g_4_1_s"), 2).betti == 2
    assert cohomology(build("g_4_2_s"), 2).betti == 0
    assert cohomology(build("g_6_s"), 2).betti == 6


def test_c02_span_dimensions():
    """Coboundary/cocycle dimensions behind the degree-2 Betti values."""
    expected = {
        "g_4_1_s": (2, 4),  # (dim Im delta_1, dim Ker delta_2)
        "g_4_2_s": (3, 3),
        "g_6_s": (3, 9),
    }
    for key, (dim_b2, dim_z2) in expected.items():
        r = cohomology(build(key), 2)
        assert r.dim_coboundaries == dim_b2, key
        assert r.dim_cocycles == dim_z2, key


def test_c03_representative_membership():
    """The classical degree-2 class representatives of the elementary
    families are cocycles, are not coboundaries, and span H^2."""
    q41 = build("g_4_1_s")
    b41 = q41.basis
    reps41 = [
        mono(b41, even_labels=("Y0",), odd_labels=("X1",)),
        mono(b41, odd_labels=("X1", "Y1"))
        + mono(b41, even_labels=("X0", "Y0"), coeff=-2),
    ]
    q6 = build("g_6_s")
    b6 = q6.basis
    reps6 = [
        mono(b6, even_labels=("Y0",), odd_labels=("X1",)),
        mono(b6, even_labels=("Y0",), odd_labels=("Y1",)),
        mono(b6, odd_labels=("Z1", "Z1")),
        mono(b6, odd_labels=("T1", "T1")),
        mono(b6, odd_labels=("X1", "Z1"))
        + mono(b6, even_labels=("X0", "Y0"), coeff=-1),
        mono(b6, odd_labels=("Y1", "T1"))
        + mono(b6, even_labels=("X0", "Y0"), coeff=-1),
    ]
    for q, reps in ((q41, reps41), (q6, reps6)):
        res = cohomology(q, 2)
        assert len(reps) == res.betti
        vectors = []
        for rep in reps:
            assert is_cocycle(q, rep)
            assert not is_coboundary(q, rep)
            vectors.append(class_vector(q, rep, result=res))
        assert rank(vectors) == res.betti  # the classes are independent

    # the 4-dimensional family with H^2 = 0: its degree-2 cocycles are
    # exactly the coboundaries
    q42 = build("g_4_2_s")
    b42 = q42.basis
    assert cohomology(q42, 2).betti == 0
    for c in (
        mono(b42, odd_labels=("X1", "Y1")),
        mono(b42, even_labels=("Y0",), odd_labels=("X1",)),
        mono(b42, even_labels=("Y0",), odd_labels=("Y1",)),
    ):
        assert is_cocycle(q42, c)
        assert is_coboundary(q42, c)


def test_c04_heisenberg_formula():
    """b_2 of h_{2n+1,m} equals 2n^2 - n + 2nm + (m^2+m)/2 - 1.

    The closed formula is the authority here; its value at (2,2) is 16,
    and the exact-rank computation agrees at all four points."""
    got = []
    want = []
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        g = build("h", {"n": n, "m": m})
        got.append(cohomology(g, 2).betti)
        want.append(2 * n * n - n + 2 * n * m + (m * m + m) // 2 - 1)
    assert got == want == [3, 7, 10, 16]


def test_c05_poisson_table():
    """The 13 bracket values {I, c} on the 4-dimensional family, with I
    normalized so that I = + Y0* (x) (Y1*)^2.

    Entries for X0*(x)X1* and X0*(x)Y1* are fixed by the Leibniz rule
    from the degree-1 rows: {I, X0* ^ A} = {I, X0*} ^ A - X0* ^ {I, A}."""
    q = build("g_4_1_s")
    b = q.basis
    i_disp = associated_three_form(q).scale(Fraction(-1))
    assert str(i_disp) == "1 * e(2) ⊗ s(2 2)"  # + Y0* (x) (Y1*)^2

    def bk(c):
        return poisson_bracket(q, i_disp, c)

    x0 = mono(b, even_labels=("X0",))
    y0 = mono(b, even_labels=("Y0",))
    x1 = mono(b, odd_labels=("X1",))
    y1 = mono(b, odd_labels=("Y1",))

    table = [
        (x0, mono(b, odd_labels=("Y1", "Y1"))),
        (y0, Cochain.zero(b)),
        (x1, mono(b, even_labels=("Y0",), odd_labels=("Y1",), coeff=2)),
        (y1, Cochain.zero(b)),
        (
            mono(b, even_labels=("X0", "Y0")),
            mono(b, even_labels=("Y0",), odd_labels=("Y1", "Y1")),
        ),
        (
            mono(b, even_labels=("X0",), odd_labels=("X1",)),
            mono(b, odd_labels=("X1", "Y1", "Y1"))
            + mono(b, even_labels=("X0", "Y0"), odd_labels=("Y1",), coeff=-2),
        ),
        (
            mono(b, even_labels=("X0",), odd_labels=("Y1",)),
            mono(b, odd_labels=("Y1", "Y1", "Y1")),
        ),
        (mono(b, even_labels=("Y0",), odd_labels=("X1",)), Cochain.zero(b)),
        (mono(b, even_labels=("Y0",), odd_labels=("Y1",)), Cochain.zero(b)),
        (
            mono(b, odd_labels=("X1", "X1")),
            mono(b, even_labels=("Y0",), odd_labels=("X1", "Y1"), coeff=4),
        ),
        (mono(b, odd_labels=("Y1", "Y1")), Cochain.zero(b)),
        (
            mono(b, odd_labels=("X1", "Y1")),
            mono(b, even_labels=("Y0",), odd_labels=("Y1", "Y1"), coeff=2),
        ),
    ]
    for arg, want in table:
        assert (bk(arg) - want).is_zero, str(arg)
    # entry 13: the 3-form self-bracket vanishes (either normalization)
    assert poisson_bracket(q, i_disp, i_disp).is_zero

    # cross-check rows 6 and 7 via the Leibniz rule they were fixed by
    sign = Fraction(koszul((3, 0), (1, 0)))
    for a in (x1, y1):
        lhs = bk(wedge(x0, a))
        rhs = wedge(bk(x0), a) + wedge(x0, bk(a)).scale(sign)
        assert (lhs - rhs).is_zero


def test_c06_dual_differential():
    """delta computed from the bracket table agrees with -{I, .} on all
    monomials of degree <= 3, for every quadratic entry; and the matrix
    differentials compose to zero."""
    for key in QUADRATIC_KEYS:
        q = build(key)
        g = q.algebra
        for k in range(0, 4):
            for m in monomials_of_degree(q.basis, k):
                c = Cochain.from_terms(q.basis, {m: Fraction(1)})
                direct = differential_direct(g, c)
                via = differential_via_poisson(q, c)
                assert (direct - via).is_zero, (key, m)
    for key in ("g_4_1_s", "g_6_s", "g_6_1", "g_8_2_5_s", "h"):
        obj = build(key)
        for k in range(0, 3):
            dk = differential_matrix(obj, k)
            dk1 = differential_matrix(obj, k + 1)
            a, b = dk1.entries, dk.entries  # each access builds the dense view
            for i in range(dk1.shape[0]):
                for j in range(dk.shape[1]):
                    acc = Fraction(0)
                    for t in range(dk.shape[0]):
                        acc += a[i][t] * b[t][j]
                    assert acc == 0, (key, k)


def test_c07_graded_lie_properties():
    """Antisymmetry, Leibniz, and Jacobi with Koszul signs in the
    (Z total degree, Z2 symmetric parity) bidegree, on 200 seeded random
    homogeneous triples per quadratic entry."""
    for key in QUADRATIC_KEYS:
        q = build(key)
        rng = random.Random(f"graded-lie:{key}")
        for _ in range(200):
            a, da = random_homogeneous(q.basis, rng, max_degree=2)
            b, db = random_homogeneous(q.basis, rng, max_degree=2)
            c, dc = random_homogeneous(q.basis, rng, max_degree=2)

            ab = poisson_bracket(q, a, b)
            # antisymmetry
            ba = poisson_bracket(q, b, a)
            assert (ab + ba.scale(Fraction(koszul(da, db)))).is_zero

            # Leibniz rule on the wedge
            lhs = poisson_bracket(q, a, wedge(b, c))
            rhs = wedge(ab, c) + wedge(
                b, poisson_bracket(q, a, c)
            ).scale(Fraction(koszul(da, db)))
            assert (lhs - rhs).is_zero

            # graded Jacobi identity
            jac_lhs = poisson_bracket(q, a, poisson_bracket(q, b, c))
            jac_rhs = poisson_bracket(q, ab, c) + poisson_bracket(
                q, b, poisson_bracket(q, a, c)
            ).scale(Fraction(koszul(da, db)))
            assert (jac_lhs - jac_rhs).is_zero


def _random_skew(space, rng):
    if not space:
        return None
    dim = space[0].dim
    coeffs = [Fraction(rng.randint(-2, 2)) for _ in space]
    rows = [
        [
            sum((c * s.matrix[i][j] for c, s in zip(coeffs, space)), Fraction(0))
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return Superderivation(matrix=tuple(tuple(r) for r in rows), degree=0)


def test_c08_double_extension_soundness():
    """Randomized valid extension data always produce algebras passing
    the full quadratic validator."""
    rng = random.Random("double-extension")
    bases = ("g_4_1_s", "g_4_2_s", "g_6_s", "g_6_1", "g_dec")
    built = 0
    for key in bases:
        q = build(key)
        space = skew_superderivation_space(q, 0)
        for _ in range(4):
            d = _random_skew(space, rng)
            if d is None:
                continue

            # one-dimensional even line, optionally with a form on h
            line = GradedBasis(labels=("e0",), parities=(0,))
            h1 = LieSuperalgebra(basis=line, constants={})
            gamma = None
            if rng.random() < 0.5:
                gamma = BilinearForm(
                    basis=line, gram=((Fraction(rng.randint(1, 3)),),)
                )
            datum = ExtensionDatum(base=q, h=h1, psi=(d,), gamma=gamma)
            assert validate_extension_datum(datum).ok, key
            out = double_extension(datum)
            assert validate_quadratic(out).ok, key
            assert out.dim == q.dim + 2
            built += 1

            # two-dimensional abelian h with commuting images
            plane = GradedBasis(labels=("e0", "e1"), parities=(0, 0))
            h2 = LieSuperalgebra(basis=plane, constants={})
            t = Fraction(rng.randint(-2, 2))
            datum2 = ExtensionDatum(base=q, h=h2, psi=(d, _scale(d, t)))
            assert validate_extension_datum(datum2).ok, key
            out2 = double_extension(datum2)
            assert validate_quadratic(out2).ok, key
            assert out2.dim == q.dim + 4
            built += 1

            # the non-abelian plane [a,b] = b with psi(b) = 0
            nb = GradedBasis(labels=("a", "b"), parities=(0, 0))
            r2 = LieSuperalgebra.from_index_table(
                nb, [(0, 1, {1: Fraction(1)})]
            )
            zero = Superderivation(
                matrix=tuple(
                    tuple(Fraction(0) for _ in range(q.dim))
                    for _ in range(q.dim)
                ),
                degree=0,
            )
            datum3 = ExtensionDatum(base=q, h=r2, psi=(d, zero))
            if validate_extension_datum(datum3).ok:
                out3 = double_extension(datum3)
                assert validate_quadratic(out3).ok, key
                built += 1
    assert built >= 50, built


def _scale(d: Superderivation, t: Fraction) -> Superderivation:
    return Superderivation(
        matrix=tuple(tuple(t * x for x in row) for row in d.matrix),
        degree=d.degree,
    )


def test_c09_classification_reconstruction():
    """The one-dimensional double-extension data computed by central
    reduction rebuild all nine 8-dimensional families exactly, at three
    admissible parameter bindings each; and all nine validate and are
    solvable."""
    bindings = {
        "g_8_2_1_s": [
            None,
            {"lam": 2, "mu": -1, "nu": Fraction(1, 3)},
            {"lam": 0, "mu": 0, "nu": 5},
        ],
        "g_8_2_2_s": [None, {"lam": 0, "mu": Fraction(3, 2)}, {"lam": -2, "mu": 0}],
        "g_8_2_3_s": [None, {"lam": 2}, {"lam": Fraction(-1, 2)}],
        "g_8_2_4_s": [
            None,
            {"lam": 3, "mu": Fraction(1, 2)},
            {"lam": Fraction(-2, 3), "mu": -1},
        ],
        "g_8_2_5_s": [None, {"lam": 2}, {"lam": Fraction(-1, 3)}],
        "g_8_2_6_s": [None, {"mu": -2}, {"mu": Fraction(5, 4)}],
        "g_8_2_7_s": [None, None, None],
        "g_8_2_8_s": [None, {"lam": 5}, {"lam": Fraction(2, 7)}],
        "g_8_2_9_s": [None, None, None],
    }
    for key in bindings:
        for params in bindings[key]:
            recipe = reconstruction_datum(key, params)
            rebuilt = one_dim_double_extension(
                recipe.base, recipe.derivation, labels=recipe.labels
            )
            rebuilt = reorder_quadratic(rebuilt, list(recipe.catalog_order))
            reference = build(key, params)
            assert rebuilt.basis.labels == reference.basis.labels
            assert rebuilt.algebra.constants == reference.algebra.constants
            assert rebuilt.form.gram == reference.form.gram

    for i in range(1, 10):
        q = build(f"g_8_2_{i}_s")
        assert validate_quadratic(q).ok
        assert is_solvable(q.algebra)


def test_c10_sp2_lemmas():
    """Certificates for the three structural facts about traceless 2x2
    matrices: commuting implies dependent; a commutator commuting with
    both factors vanishes; an eigenvector relation [A,B] = B forces
    discriminant 1/4 and nilpotency."""
    rng = random.Random("sp2-suite")

    def rand_elt(bound=6):
        return Sp2Element(
            Fraction(rng.randint(-bound, bound), rng.randint(1, 3)),
            Fraction(rng.randint(-bound, bound), rng.randint(1, 3)),
            Fraction(rng.randint(-bound, bound), rng.randint(1, 3)),
        )

    # dependence certificates for 1000 commuting pairs
    checked = 0
    while checked < 1000:
        m1 = rand_elt()
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        m2 = m1.scale(t)
        mu, nu = check_commuting_dependence(m1, m2)
        assert (mu, nu) != (0, 0)
        assert (m1.scale(mu) + m2.scale(nu)).is_zero
        checked += 1

    # [A,B] = C with [A,C] = [B,C] = 0 forces C = 0: in every random
    # triple where both commutators vanish the middle term is zero, and
    # whenever C != 0 at least one factor fails to commute with it
    vanishing = 0
    nonzero_c = 0
    for _ in range(2000):
        a = rand_elt()
        b = rand_elt() if rng.random() < 0.5 else a.scale(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        )
        c = commutator(a, b)
        ac = commutator(a, c)
        bc = commutator(b, c)
        if ac.is_zero and bc.is_zero:
            assert c.is_zero
            vanishing += 1
        else:
            assert not c.is_zero
            nonzero_c += 1
    assert vanishing >= 500 and nonzero_c >= 500

    # eigenvector relation: conjugates and shifts of (H/2, X) all carry
    # discriminant 1/4 and a nilpotent eigenvector
    instances = 0
    while instances < 300:
        p = rng.randint(-3, 3)
        qq = rng.randint(-3, 3)
        r = rng.randint(-3, 3)
        s = rng.randint(-3, 3)
        det = p * s - qq * r
        if det == 0:
            continue
        g = [[Fraction(p), Fraction(qq)], [Fraction(r), Fraction(s)]]
        a = _conjugate(H.scale(Fraction(1, 2)), g)
        bmat = _conjugate(X, g)
        if bmat.is_zero:
            continue
        shift = Fraction(rng.randint(-2, 2))
        a = a + bmat.scale(shift)  # [B, B] = 0 keeps the relation
        assert commutator(a, bmat) == bmat
        assert check_eigenvector_relation(a, bmat) == (True, True)
        instances += 1


def _conjugate(m: Sp2Element, g) -> Sp2Element:
    from helpers import inverse_dense, mat_mul

    conj = mat_mul(inverse_dense(g), mat_mul(m.matrix(), g))
    return Sp2Element(conj[0][0], conj[0][1], conj[1][0])
