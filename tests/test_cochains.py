"""Super-exterior algebra: evaluation, wedge, contraction, differential,
and the Poisson bracket against an independent rule-based oracle."""
import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    QUADRATIC_KEYS,
    PoissonOracle,
    alt_degree,
    bidegree,
    coefficient,
    contract_vector,
    coordinates,
    delta_by_tuples,
    differential_by_evaluation,
    evaluate,
    form_value,
    koszul,
    mono,
    poisson_by_tuples,
    poisson_left_by_tuples,
    random_homogeneous,
    wedge_by_tuples,
)
from superquad import build, catalog_keys
from superquad.algebra import GradedBasis, LieSuperalgebra, validate_super_jacobi
from superquad.cochains import (
    Cochain,
    Monomial,
    _delta,
    _pack,
    _poisson,
    _poisson_left,
    _unpack,
    associated_three_form,
    differential_direct,
    differential_via_poisson,
    monomials_of_degree,
    poisson_bracket,
    wedge,
)
from superquad.cohomology import class_vector, cochain_basis, differential_matrix, is_coboundary, is_cocycle
from superquad.errors import InputError
from superquad.quadratic import BilinearForm, QuadraticLieSuperalgebra


def dense_abelian() -> QuadraticLieSuperalgebra:
    """Abelian algebra with a deliberately non-diagonal invariant form."""
    basis = GradedBasis(labels=("A", "B", "U", "V"), parities=(0, 0, 1, 1))
    g = LieSuperalgebra(basis=basis, constants={})
    form = BilinearForm.from_pairs(
        basis, [("A", "A", 2), ("A", "B", 1), ("B", "B", 1), ("U", "V", 2)]
    )
    return QuadraticLieSuperalgebra(algebra=g, form=form)


def rescaled(q: QuadraticLieSuperalgebra, x: Fraction) -> QuadraticLieSuperalgebra:
    """q with B scaled by x: I scales by x and G^-1 by 1/x."""
    gram = tuple(tuple(x * v for v in row) for row in q.form.gram)
    return QuadraticLieSuperalgebra(q.algebra, BilinearForm(q.basis, gram))


# ---------------------------------------------------------------- evaluation


def test_monomial_validation():
    with pytest.raises(InputError):
        Monomial(even=(1, 0), odd=())
    with pytest.raises(InputError):
        Monomial(even=(0, 0), odd=())
    with pytest.raises(InputError):
        Monomial(even=(), odd=(3, 2))


def test_public_cochain_constructors_keep_every_check():
    b = build("g_4_1_s").basis  # X0 Y0 | X1 Y1
    m = Monomial(even=(0,), odd=(2,))
    with pytest.raises(InputError, match="duplicate"):
        Cochain(b, ((m, Fraction(1)), (m, Fraction(2))))
    with pytest.raises(InputError, match="zero coefficient"):
        Cochain(b, ((m, Fraction(0)),))
    for bad in (Monomial(even=(2,), odd=()), Monomial(even=(), odd=(1,)), Monomial(even=(), odd=(4,))):
        with pytest.raises(InputError, match="out of range"):
            Cochain(b, ((bad, Fraction(1)),))
        with pytest.raises(InputError, match="out of range"):
            Cochain.from_terms(b, {bad: Fraction(1)})
    with pytest.raises(InputError):
        Cochain.dual(b, "Z0")
    # terms of another shape than (Monomial, coefficient) pairs
    malformed = (
        lambda: Cochain.from_terms(b, [([1], 1)]),
        lambda: Cochain(b, ((m,),)),
        lambda: Cochain(b, ((m, 1, 2),)),
        lambda: Cochain.from_terms(b, 5),
        lambda: Cochain.from_terms(b, [(m,)]),
    )
    for make in malformed:
        with pytest.raises(InputError, match="pair|Monomials"):
            make()


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda b, m: Cochain.dual(b, "X0").scale(0.5), id="scale-float"),
        pytest.param(lambda b, m: Cochain.dual(b, "X0").scale("0.5"), id="scale-decimal"),
        pytest.param(lambda b, m: Cochain.dual(b, "X0").scale(None), id="scale-None"),
        pytest.param(lambda b, m: 2.5 * Cochain.dual(b, "X0"), id="rmul-float"),
        pytest.param(lambda b, m: Cochain.from_terms(b, {m: 0.5}), id="from_terms-float"),
        pytest.param(lambda b, m: Cochain.from_terms(b, [(m, 1), (m, 0.5)]), id="from_terms-sum"),
        pytest.param(lambda b, m: Cochain(b, ((m, 0.25),)), id="Cochain-float"),
    ],
)
def test_cochain_coefficients_are_exact_rationals(make):
    b = build("g_4_1_s").basis
    with pytest.raises(InputError, match="exact rational"):
        make(b, Monomial(even=(0,), odd=(2,)))


def test_public_cochain_constructors_store_fractions():
    b = build("g_4_1_s").basis
    m = Monomial(even=(0,), odd=(2,))
    for c in (Cochain(b, [(m, 2)]), Cochain.from_terms(b, {m: "2"}), Cochain.dual(b, "X0").scale("1/2")):
        assert all(type(x) is Fraction for _, x in c.terms) and type(c.terms) is tuple
    assert Cochain(b, [(m, 2)]) == Cochain.from_terms(b, [(m, 1), (m, Fraction(1))])
    # the terms are stored in basis order, whatever order they are given in
    later = Monomial(even=(1,), odd=(2,))
    assert Cochain(b, [(later, 1), (m, 1)]) == Cochain.from_terms(b, {m: 1, later: 1})
    assert Cochain.dual(b, "X0").scale("1/2") == Fraction(1, 2) * Cochain.dual(b, "X0")
    # a value type: the form of a coefficient does not matter, and a cochain
    # a kernel makes equals and hashes like the one the constructors make
    public, kernel = Cochain(b, [(m, 2)]), 2 * wedge(Cochain.dual(b, "X0"), Cochain.dual(b, "X1"))
    assert Cochain.from_terms(b, {m: 2}) == Cochain.from_terms(b, {m: Fraction(2)}) == public == kernel
    assert len({public, kernel, Cochain(b, [(m, Fraction(2))])}) == 1 and {public: 1}[kernel] == 1
    assert repr(kernel) == f"Cochain(basis={b!r}, terms=((Monomial(even=(0,), odd=(2,)), Fraction(2, 1)),))"
    assert sorted(vars(Cochain(b, [(m, 2)]))) == sorted(vars(2 * Cochain.dual(b, "X0"))) == ["basis", "keys"]
    assert pickle.loads(pickle.dumps(kernel)) == kernel and copy.deepcopy(kernel) == kernel
    with pytest.raises(TypeError):
        kernel.keys[_pack(2, m)] = 3
    with pytest.raises(AttributeError):
        kernel.keys = {}
    assert kernel.keys == {_pack(2, m): 2} and kernel == public


def test_the_degree_split_is_kept_but_never_compared():
    """``Cochain._degrees`` groups the keys by degree on first read and
    keeps them; equality, the hash, the repr, pickle and deepcopy read
    only the fields, and a fresh cochain holds nothing else."""
    q = build("g_8_2_5_s")
    c, twin = (q._three_form + Cochain.dual(q.basis, "Z1") - Cochain.unit(q.basis).scale(3) for _ in range(2))
    assert sorted(vars(c)) == sorted(vars(twin)) == ["basis", "keys"]
    degrees = c._degrees
    assert c._degrees is degrees and sorted(vars(c)) == ["_degrees", "basis", "keys"]
    want = {}
    for m, x in twin.terms:
        want.setdefault(m.degree, {})[_pack(q.basis.even_dim, m)] = x
    assert degrees == want and sorted(degrees) == [0, 1, 3]
    assert c == twin and twin == c and hash(c) == hash(twin)
    assert repr(c) == repr(twin) and pickle.dumps(c) == pickle.dumps(twin)
    for copied in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert copied == c and hash(copied) == hash(c) and sorted(vars(copied)) == ["basis", "keys"]


ARITHMETIC_BASES = {key: build(key).basis for key in ("g_4_1_s", "g_6_s", "g_6_2", "h")}
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def operands(draw):
    """Two cochains a, b over one catalog basis and a rational x.  b is
    fresh, a itself, a's negation, or shares a's monomials with some of
    them cancelling."""
    basis = ARITHMETIC_BASES[draw(st.sampled_from(sorted(ARITHMETIC_BASES)))]
    monomials = [m for k in range(4) for m in monomials_of_degree(basis, k)]

    def terms():
        picked = draw(st.lists(st.sampled_from(monomials), max_size=8, unique=True))
        return {m: draw(coefficients) for m in picked}  # a zero is dropped

    a = Cochain.from_terms(basis, terms())
    kind = draw(st.sampled_from(["fresh", "same", "negated", "overlap"]))
    if kind == "fresh":
        b = Cochain.from_terms(basis, terms())
    elif kind == "same":
        b = a
    elif kind == "negated":
        b = Cochain.from_terms(basis, {m: -c for m, c in a.terms})
    else:
        shared = {m: draw(st.sampled_from([-c, c, 2 * c])) for m, c in a.terms}
        b = Cochain.from_terms(basis, [*shared.items(), *terms().items()])
    return a, b, draw(coefficients)


@settings(max_examples=150, deadline=None)
@given(operands())
def test_cochain_arithmetic_matches_from_terms_and_passes_the_public_checks(ops):
    a, b, x = ops
    basis = a.basis
    negated = [(m, -c) for m, c in b.terms]
    cases = [
        (a + b, Cochain.from_terms(basis, a.terms + b.terms)),
        (a - b, Cochain.from_terms(basis, [*a.terms, *negated])),
        (-b, Cochain.from_terms(basis, negated)),
        (a.scale(x), Cochain.from_terms(basis, {m: x * c for m, c in a.terms})),
        (x * a, Cochain.from_terms(basis, {m: x * c for m, c in a.terms})),
    ]
    for result, oracle in cases:
        assert result == oracle
        assert result.basis is basis
        assert Cochain(result.basis, result.terms) == result
        keys = [m.sort_key() for m, _ in result.terms]
        assert keys == sorted(keys)
        assert all(type(c) is Fraction and c != 0 for _, c in result.terms)
        # the keys stay zero-free and in the kernels' form: an int when integral
        assert all(x and (type(x) is int) == (x.denominator == 1) for x in result.keys.values())
    assert (a - a).is_zero and (a + -a).is_zero and (b - b).is_zero


def test_kernel_cochains_pass_the_public_checks():
    # every delta column, Leibniz and -{I, .}, of all 17 keys to degree 2
    for key in catalog_keys():
        q = build(key)
        quadratic = isinstance(q, QuadraticLieSuperalgebra)
        g = q.algebra if quadratic else q
        for k in range(3):
            for m in monomials_of_degree(g.basis, k):
                c = Cochain.from_terms(g.basis, {m: Fraction(1)})
                images = [differential_direct(g, c)]
                if quadratic and k < 2:
                    images.append(differential_via_poisson(q, c))
                for d in images:
                    assert Cochain(d.basis, d.terms) == d


def test_monomial_hash_and_equality_agree_however_built():
    b = build("g_6_s").basis
    kernel_made = monomials_of_degree(b, 3)  # built without the order check
    public = [Monomial(even=m.even, odd=m.odd) for m in kernel_made]
    for a, p in zip(kernel_made, public):
        assert a == p and hash(a) == hash(p) and a is not p
        assert repr(p) == f"Monomial(even={p.even}, odd={p.odd})"
    index = {m: i for i, m in enumerate(public)}
    assert [index[m] for m in kernel_made] == list(range(len(public)))
    assert len(set(kernel_made) | set(public)) == len(public)
    assert len({*kernel_made[:5], *public[3:8]}) == 8
    assert Monomial(even=(0,), odd=()) != Monomial(even=(), odd=(0,))
    assert Monomial(even=(0,), odd=()) != ((0,), ())


def test_monomial_degree_is_set_once_however_built():
    public = Monomial(even=(0, 1), odd=(2, 2, 3))
    decoded = _unpack(2, _pack(2, public))
    assert decoded == public and decoded is not public
    for m in (public, decoded):
        # an attribute of the object, read without a call
        assert vars(m)["degree"] == m.degree == 5
    assert "degree" not in vars(Monomial)


def test_evaluation_normalization():
    q = build("g_4_1_s")  # basis X0 Y0 | X1 Y1 -> indices 0 1 | 2 3
    b = q.basis

    # alternating pair: antisymmetric, unit value on the canonical tuple
    c = mono(b, even_labels=("X0", "Y0"))
    assert evaluate(c, (0, 1)) == 1
    assert evaluate(c, (1, 0)) == -1
    assert evaluate(c, (0, 0)) == 0

    # repeated symmetric slot: value on the canonical tuple is 2! = 2
    s2 = mono(b, odd_labels=("X1", "X1"))
    assert evaluate(s2, (2, 2)) == 2
    assert evaluate(s2, (2, 3)) == 0

    # distinct symmetric slots: symmetric, unit value
    suv = mono(b, odd_labels=("X1", "Y1"))
    assert evaluate(suv, (2, 3)) == 1
    assert evaluate(suv, (3, 2)) == 1

    # moving an odd argument past an even one flips the sign
    mixed = mono(b, even_labels=("X0",), odd_labels=("X1",))
    assert evaluate(mixed, (0, 2)) == 1
    assert evaluate(mixed, (2, 0)) == -1


def test_display_conventions():
    q = build("g_4_1_s")
    b = q.basis
    assert str(Cochain.unit(b)) == "1 * 1"
    assert str(Cochain.zero(b)) == "0"
    c = Cochain.from_terms(
        b, {Monomial(even=(0, 1), odd=(2, 2)): Fraction(3, 2)}
    )
    assert str(c) == "3/2 * e(1^2) ⊗ s(1 1)"


# --------------------------------------------------------------------- wedge


def test_wedge_unit_and_nilpotence():
    q = build("g_4_1_s")
    b = q.basis
    a = mono(b, even_labels=("X0",))
    assert (wedge(Cochain.unit(b), a) - a).is_zero
    assert wedge(a, a).is_zero  # alternating generator squares to zero
    s = mono(b, odd_labels=("X1",))
    sq = wedge(s, s)
    assert coefficient(sq, Monomial(even=(), odd=(2, 2))) == 1


def test_wedge_supercommutativity_random():
    rng = random.Random(20250819)
    for key in ("g_4_1_s", "g_6_s"):
        q = build(key)
        for _ in range(60):
            a, da = random_homogeneous(q.basis, rng, max_degree=3)
            c, dc = random_homogeneous(q.basis, rng, max_degree=3)
            lhs = wedge(a, c)
            rhs = wedge(c, a).scale(Fraction(koszul(da, dc)))
            assert (lhs - rhs).is_zero


def test_wedge_associativity_random():
    rng = random.Random(77)
    q = build("g_6_s")
    for _ in range(40):
        a, _ = random_homogeneous(q.basis, rng, max_degree=2)
        b, _ = random_homogeneous(q.basis, rng, max_degree=2)
        c, _ = random_homogeneous(q.basis, rng, max_degree=2)
        assert (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).is_zero


# --------------------------------------------------------------- contraction


def test_contraction_against_evaluation():
    # i_X(A)(args) = (-1)^{x b(A)} A(X, args), checked exhaustively
    q = build("g_4_1_s")
    b = q.basis
    idx = range(b.dim)
    for k in (1, 2, 3):
        for m in monomials_of_degree(b, k):
            c = Cochain.from_terms(b, {m: Fraction(1)})
            for i in idx:
                contracted = contract_vector(c, [Fraction(j == i) for j in idx])
                sign = -1 if (b.parities[i] * m.sym_degree) % 2 else 1
                for args in _tuples(b.dim, k - 1):
                    assert evaluate(contracted, args) == sign * evaluate(
                        c, (i,) + args
                    )
            # and by a parity-homogeneous combination of basis vectors
            for parity, v in ((0, (1, -2, 0, 0)), (1, (0, 0, 3, -1))):
                contracted = contract_vector(c, [Fraction(x) for x in v])
                sign = -1 if (parity * m.sym_degree) % 2 else 1
                for args in _tuples(b.dim, k - 1):
                    assert evaluate(contracted, args) == sign * sum(
                        x * evaluate(c, (i,) + args) for i, x in enumerate(v)
                    )


def _tuples(n, k):
    if k == 0:
        return [()]
    smaller = _tuples(n, k - 1)
    return [(i,) + t for i in range(n) for t in smaller]


# -------------------------------------------------------------- differential


def test_differential_squares_to_zero():
    for key in ("g_4_1_s", "g_4_2_s", "g_6_1", "g_6_s"):
        q = build(key)
        g = q.algebra
        for k in (0, 1, 2, 3):
            for m in monomials_of_degree(g.basis, k):
                c = Cochain.from_terms(g.basis, {m: Fraction(1)})
                assert differential_direct(g, differential_direct(g, c)).is_zero


def test_differential_is_a_superderivation_of_wedge():
    # the engine's delta is built from this rule, so check the
    # evaluation formula obeys it
    rng = random.Random(11)
    q = build("g_6_s")
    g = q.algebra
    for _ in range(40):
        a, da = random_homogeneous(g.basis, rng, max_degree=2)
        b, _ = random_homogeneous(g.basis, rng, max_degree=2)
        lhs = differential_by_evaluation(g, wedge(a, b))
        sign = Fraction(-1 if da[0] % 2 else 1)
        rhs = wedge(differential_by_evaluation(g, a), b) + wedge(
            a, differential_by_evaluation(g, b)
        ).scale(sign)
        assert (lhs - rhs).is_zero


def non_jacobi_bracket(seed: int) -> LieSuperalgebra:
    """Seeded parity-respecting bracket table on 3 even + 2 odd vectors."""
    rng = random.Random(seed)
    parities = (0, 0, 0, 1, 1)
    basis = GradedBasis(labels=("a", "b", "c", "u", "v"), parities=parities)
    rows = []
    for i in range(5):
        for j in range(i, 5):
            if i == j and parities[i] == 0:
                continue
            targets = [k for k in range(5) if parities[k] == (parities[i] + parities[j]) % 2]
            rows.append((i, j, {k: rng.choice((-2, -1, 1, 2)) for k in targets if rng.random() < 0.5}))
    return LieSuperalgebra.from_index_table(basis, rows)


def test_differential_matches_evaluation_oracle():
    cases = [(build(key), range(3)) for key in catalog_keys()]
    cases.append((build("g_8_2_5_s"), (3,)))
    for seed in (5, 6):
        g = non_jacobi_bracket(seed)
        assert validate_super_jacobi(g)
        cases.append((g, range(4)))
    checked = 0
    for obj, degrees in cases:
        g = getattr(obj, "algebra", obj)
        for k in degrees:
            for m in monomials_of_degree(g.basis, k):
                c = Cochain.from_terms(g.basis, {m: Fraction(1)})
                assert differential_direct(g, c) == differential_by_evaluation(g, c), m
                checked += 1
    # 515 catalog monomials to degree 2, 72 of g_8_2_5_s, 2 x 38 seeded
    assert checked == 515 + 72 + 2 * 38

    # seeded multi-term cochains: every term that contains a letter t goes
    # into one wedge with delta(t*)
    rng = random.Random(7919)
    for obj, _ in cases:
        g = getattr(obj, "algebra", obj)
        for k in (1, 2, 3):
            pool = monomials_of_degree(g.basis, k)
            for _ in range(4):
                picks = rng.sample(pool, min(len(pool), 6))
                terms = {m: Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))) for m in picks}
                c = Cochain.from_terms(g.basis, terms)
                assert differential_direct(g, c) == differential_by_evaluation(g, c), c

    # degree 4 wherever an odd letter can repeat up to four times: one
    # seeded cochain on every monomial of C^4 at once
    fourth_powers = 0
    for obj in [build(key) for key in catalog_keys()] + [non_jacobi_bracket(seed) for seed in (5, 6)]:
        g = getattr(obj, "algebra", obj)
        if g.basis.odd_dim < 2:
            continue
        pool = monomials_of_degree(g.basis, 4)
        fourth_powers += sum(len(set(m.odd)) == 1 and m.sym_degree == 4 for m in pool)
        c = Cochain.from_terms(g.basis, {m: Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))) for m in pool})
        assert differential_direct(g, c) == differential_by_evaluation(g, c), obj
    # the fourth power of every odd letter: 2 on each of 12 catalog keys,
    # 4 on g_6_s and 2 on each seeded bracket
    assert fourth_powers == 2 * 12 + 4 + 2 * 2


def test_differential_matches_bracket_duality_in_degree_one():
    # (d f)(x, y) with f = dual of basis vector t equals -(-1)^{...} f([x,y]):
    # check the defining property numerically through evaluation
    q = build("g_6_1")
    g = q.algebra
    n = g.dim
    for t in range(n):
        f = Cochain.from_terms(
            g.basis,
            {
                Monomial(even=(t,), odd=())
                if g.basis.parities[t] == 0
                else Monomial(even=(), odd=(t,)): Fraction(1)
            },
        )
        df = differential_direct(g, f)
        for i in range(n):
            for j in range(n):
                want = -g.bracket_pair(i, j).get(t, Fraction(0))
                assert evaluate(df, (i, j)) == want


# ------------------------------------------------------------ three-form


def test_associated_three_form_is_evaluation_faithful():
    for key in ("g_4_1_s", "g_6_s", "g_8_2_5_s", "g_dec"):
        q = build(key)
        I = associated_three_form(q)
        g = q.algebra
        n = g.dim
        for i in range(n):
            for j in range(n):
                lij = g.bracket(g.basis_vector(i), g.basis_vector(j))
                for k in range(n):
                    want = form_value(q.form, lij, g.basis_vector(k))
                    assert evaluate(I, (i, j, k)) == want


# ------------------------------------------------------------------ poisson


def test_poisson_bracket_matches_rule_based_oracle():
    for q in (build("g_4_1_s"), dense_abelian(), rescaled(build("g_6_s"), Fraction(-2, 3))):
        oracle = PoissonOracle(q)
        for ka in (1, 2, 3):
            for kb in (1, 2):
                for ma in monomials_of_degree(q.basis, ka):
                    ca = Cochain.from_terms(q.basis, {ma: Fraction(1)})
                    for mb in monomials_of_degree(q.basis, kb):
                        cb = Cochain.from_terms(q.basis, {mb: Fraction(1)})
                        got = poisson_bracket(q, ca, cb)
                        want = oracle.bracket(ca, cb)
                        assert (got - want).is_zero, (ma, mb)
    # q is the rescaled g_6_s, where I and G^-1 scale inversely: -{I, .}
    # still cross-checks every column of delta_k
    for k in range(4):
        assert differential_matrix(q, k).columns == differential_matrix(q.algebra, k).columns
    # {I, m} and {m, I} for every quadratic key and monomial of degree <= 2
    for key in QUADRATIC_KEYS:
        q = build(key)
        oracle = PoissonOracle(q)
        I = associated_three_form(q)
        for k in (0, 1, 2):
            for m in monomials_of_degree(q.basis, k):
                c = Cochain.from_terms(q.basis, {m: Fraction(1)})
                assert (poisson_bracket(q, I, c) - oracle.bracket(I, c)).is_zero, (key, m)
                assert (poisson_bracket(q, c, I) - oracle.bracket(c, I)).is_zero, (key, m)
    # one factor with a term in every (alternating, symmetric) group of
    # degree 1 to 3, so several grouped sign prefactors meet in one call
    q = build("g_8_2_5_s")
    oracle = PoissonOracle(q)
    firsts = {}
    for k in (1, 2, 3):
        for m in monomials_of_degree(q.basis, k):
            firsts.setdefault((alt_degree(m), m.sym_degree), m)
    assert len(firsts) == 9
    mixed = Cochain.from_terms(
        q.basis, {m: Fraction((-1) ** n * (n + 1), 2) for n, m in enumerate(firsts.values())}
    )
    others = [associated_three_form(q), mixed] + [
        Cochain.from_terms(q.basis, {m: Fraction(1)})
        for k in (0, 1, 2)
        for m in monomials_of_degree(q.basis, k)
    ]
    for c in others:
        assert (poisson_bracket(q, mixed, c) - oracle.bracket(mixed, c)).is_zero, c
        assert (poisson_bracket(q, c, mixed) - oracle.bracket(c, mixed)).is_zero, c


def test_poisson_bracket_rejects_a_malformed_form():
    # A, B | U, V abelian with B(A, B) = B(U, V) = 1, then one fault each
    basis = GradedBasis(labels=("A", "B", "U", "V"), parities=(0, 0, 1, 1))
    g = LieSuperalgebra(basis=basis, constants={})
    good = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    faults = [
        ("even at", {(0, 2): 1, (2, 0): 1}),
        ("supersymmetry at", {(1, 0): 2}),  # even block not symmetric
        ("supersymmetry at", {(3, 2): 1}),  # odd block not skew
        ("nondegenerate at", {(2, 3): 0, (3, 2): 0}),
    ]
    a, b = Cochain.dual(basis, "A"), Cochain.dual(basis, "B")
    for message, entries in faults:
        gram = [row[:] for row in good]
        for (i, j), x in entries.items():
            gram[i][j] = x
        q = QuadraticLieSuperalgebra(g, BilinearForm(basis, tuple(map(tuple, gram))))
        with pytest.raises(InputError, match=message):
            poisson_bracket(q, a, b)
        with pytest.raises(InputError, match=message):
            differential_matrix(q, 1)


def test_three_form_self_bracket_vanishes():
    for key in ("g_4_1_s", "g_6_2", "g_8_2_9_s"):
        q = build(key)
        I = associated_three_form(q)
        assert poisson_bracket(q, I, I).is_zero


def test_differential_via_poisson_matches_direct():
    # each column of differential_matrix, assembled from the letter table
    # and I's side of {I, .} built once per call, is the differential of
    # its monomial computed alone, both ways
    cases = [(key, k) for key in catalog_keys() for k in range(3)]
    cases += [("g_4_1_s", 3), ("g_8_2_5_s", 3)]
    for key, k in cases:
        q = build(key)
        quadratic = isinstance(q, QuadraticLieSuperalgebra)
        g = q.algebra if quadratic else q
        d = differential_matrix(q, k)
        for m, column in zip(d.source.monomials, d.columns):
            c = Cochain.from_terms(g.basis, {m: Fraction(1)})
            direct = differential_direct(g, c)
            assert coordinates(d.target, direct) == column, (key, m)
            if quadratic:
                assert differential_via_poisson(q, c) == direct, (key, m)


def test_prepared_left_operand_rejects_another_basis():
    q = build("g_4_1_s")
    foreign = mono(build("g_6_s").basis, even_labels=("X0",))
    with pytest.raises(InputError):
        differential_via_poisson(q, foreign)
    # the left operand q keeps is I's side of {I, .}, on q's basis only
    assert q._three_form_left.basis is q.basis
    with pytest.raises(InputError):
        _poisson_left(build("g_6_s"), q._three_form)


@pytest.mark.parametrize("bad", [1, None, "foreign"])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda q, c, bad: poisson_bracket(q, bad, c), id="poisson_bracket-left"),
        pytest.param(lambda q, c, bad: poisson_bracket(q, c, bad), id="poisson_bracket-right"),
        pytest.param(lambda q, c, bad: differential_via_poisson(q, bad), id="differential_via_poisson"),
        pytest.param(lambda q, c, bad: differential_direct(q.algebra, bad), id="differential_direct"),
        pytest.param(lambda q, c, bad: is_cocycle(q, bad), id="is_cocycle"),
        pytest.param(lambda q, c, bad: is_coboundary(q, bad), id="is_coboundary"),
        pytest.param(lambda q, c, bad: class_vector(q, bad), id="class_vector"),
        pytest.param(lambda q, c, bad: wedge(c, bad), id="wedge-right"),
        pytest.param(lambda q, c, bad: wedge(bad, c), id="wedge-left"),
        pytest.param(lambda q, c, bad: c + bad, id="add"),
        pytest.param(lambda q, c, bad: c - bad, id="sub"),
        pytest.param(lambda q, c, bad: contract_vector(bad, [0] * q.dim), id="contract_vector"),
        pytest.param(lambda q, c, bad: Cochain(q.basis, ((bad, 1),)), id="Cochain-monomial"),
        pytest.param(lambda q, c, bad: Cochain.from_terms(q.basis, {bad: 1}), id="from_terms-monomial"),
        pytest.param(lambda q, c, bad: Cochain(bad, ()), id="Cochain-basis"),
        pytest.param(lambda q, c, bad: Cochain(q.basis, bad), id="Cochain-terms"),
    ],
)
def test_every_entry_point_rejects_what_is_not_a_cochain_over_its_basis(call, bad):
    q = build("g_4_1_s")
    c = Cochain.dual(q.basis, "X0")
    if bad == "foreign":
        bad = Cochain.dual(build("g_6_s").basis, "T1")  # index 5: past g_4_1_s's basis
    with pytest.raises(InputError, match="Cochain|different bases|wrong length"):
        call(q, c, bad)


def test_contraction_by_a_vector_of_mixed_parity_is_refused():
    q = build("g_4_1_s")  # X0, Y0 even; X1, Y1 odd
    c = mono(q, even_labels=("X0",), odd_labels=("X1",))
    with pytest.raises(InputError, match="contraction vector must be parity-homogeneous"):
        contract_vector(c, [1, 0, 1, 0])


# ------------------------------------------------------------ packed kernels


@pytest.mark.parametrize(
    "key, k_max",
    [*(pytest.param(key, 3, id=f"{key}-3") for key in catalog_keys()), pytest.param("g_8_2_9_s", 6, id="g_8_2_9_s-6")],
)
def test_packed_kernels_match_the_tuple_kernels_column_by_column(key, k_max):
    """delta and -{I, .} of every monomial of C^0..C^k_max, packed
    (``_delta``, ``_poisson`` with I's side as q keeps it) and on Monomial
    tuples (the oracle's own tables): the same dictionaries, the packed
    ones in the kernels' form (an int exactly when integral)."""
    q = build(key)
    g = getattr(q, "algebra", q)
    ne, quadratic = g.basis.even_dim, g is not q
    left = poisson_left_by_tuples(q, q._three_form) if quadratic else None
    columns = 0
    for k in range(k_max + 1):
        for m in cochain_basis(g, k).keys:
            mono_m = _unpack(ne, m)
            images = [(_delta(g, [(m, 1)]), delta_by_tuples(g, [(mono_m, Fraction(1))]))]
            if quadratic:
                images.append((_poisson(q._three_form_left, [(m, 1)], -1), poisson_by_tuples(q, left, [(mono_m, Fraction(1))], -1)))
            for packed, oracle in images:
                assert {_unpack(ne, mm): x for mm, x in packed.items()} == oracle, (key, mono_m)
                assert all((type(x) is int) == (x.denominator == 1) for x in packed.values()), (key, mono_m)
            columns += 1
    assert columns == sum(len(cochain_basis(g, k).keys) for k in range(k_max + 1))


KERNEL_ALGEBRAS = {key: build(key) for key in ("g_4_1_s", "g_6_s", "g_6_2", "g_8_2_5_s", "g_dec", "h")}


@st.composite
def kernel_operands(draw):
    """An algebra of ``KERNEL_ALGEBRAS`` and two seeded cochains over it,
    of mixed degrees up to 3, some terms with fractional coefficients."""
    q = KERNEL_ALGEBRAS[draw(st.sampled_from(sorted(KERNEL_ALGEBRAS)))]
    monomials = [m for k in range(4) for m in monomials_of_degree(q.basis, k)]

    def cochain():
        picked = draw(st.lists(st.sampled_from(monomials), max_size=6, unique=True))
        return Cochain.from_terms(q.basis, {m: draw(coefficients) for m in picked})

    return q, cochain(), cochain()


@settings(max_examples=80, deadline=None)
@given(kernel_operands())
def test_public_kernels_match_the_tuple_kernels_on_random_cochains(ops):
    q, a, b = ops
    g = getattr(q, "algebra", q)
    assert wedge(a, b) == wedge_by_tuples(a, b)
    assert differential_direct(g, a) == Cochain.from_terms(g.basis, delta_by_tuples(g, a.terms))
    if g is not q:
        oracle = poisson_by_tuples(q, poisson_left_by_tuples(q, a), b.terms, 1)
        assert poisson_bracket(q, a, b) == Cochain.from_terms(q.basis, oracle)
