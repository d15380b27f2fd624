"""The registry of named algebras: builds, parameters, structure."""
import random
from fractions import Fraction

import pytest

from helpers import QUADRATIC_KEYS, dense_gram, gram_form
from superquad import build, validate_quadratic
from superquad.algebra import (
    GradedBasis,
    LieSuperalgebra,
    is_solvable,
    validate_lie_superalgebra,
)
from superquad.catalog import (
    catalog_keys,
    default_params,
    get_entry,
    reconstruction_datum,
)
from superquad.errors import InputError
from superquad.quadratic import BilinearForm, QuadraticLieSuperalgebra

EXPECTED_KEYS = (
    "h",
    "g_4_1_s",
    "g_4_2_s",
    "g_6_s",
    "g_6_1",
    "g_6_2",
    "g_6_3",
    "g_8_2_1_s",
    "g_8_2_2_s",
    "g_8_2_3_s",
    "g_8_2_4_s",
    "g_8_2_5_s",
    "g_8_2_6_s",
    "g_8_2_7_s",
    "g_8_2_8_s",
    "g_8_2_9_s",
    "g_dec",
)


def bracket_of(q, a, b):
    g = q.algebra
    i, j = g.basis.index(a), g.basis.index(b)
    terms = g.bracket_pair(i, j)
    return {g.basis.labels[k]: c for k, c in terms.items()}


def test_registry_contents():
    assert catalog_keys() == EXPECTED_KEYS
    for key in EXPECTED_KEYS:
        entry = get_entry(key)
        assert entry.key == key
        assert entry.description  # self-contained human text
    with pytest.raises(InputError):
        get_entry("nope")


def test_every_entry_builds_and_validates():
    for key in catalog_keys():
        out = build(key)
        if get_entry(key).quadratic:
            assert validate_quadratic(out).ok, key
        else:
            assert validate_lie_superalgebra(out).ok, key


def test_every_family_is_solvable():
    for key in catalog_keys():
        out = build(key)
        g = out.algebra if isinstance(out, QuadraticLieSuperalgebra) else out
        assert is_solvable(g), key


def test_random_admissible_parameters():
    rng = random.Random(2)
    nonzero = lambda: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    for key in catalog_keys():
        entry = get_entry(key)
        if not entry.params or key == "h":
            continue
        for _ in range(5):
            params = {}
            for spec in entry.params:
                params[spec.name] = (
                    nonzero()
                    if spec.constraint
                    else Fraction(rng.randint(-3, 3))
                )
            build(key, params)  # validation inside build must pass


def test_heisenberg_dimensions():
    for n, m in ((1, 0), (2, 1), (3, 2)):
        g = build("h", {"n": n, "m": m})
        assert g.dim == 2 * n + m + 1
        assert g.basis.odd_dim == m
    with pytest.raises(InputError):
        build("h", {"n": Fraction(1, 2)})
    with pytest.raises(InputError):
        build("h", {"n": 0, "m": 0})  # no generators besides the center


def test_constraint_violations_rejected():
    cases = [
        ("g_6_2", {"lam": 0}),
        ("g_8_2_1_s", {"lam": 0, "mu": 0, "nu": 0}),
        ("g_8_2_3_s", {"lam": 0}),
        ("g_8_2_4_s", {"lam": 0}),
        ("g_8_2_4_s", {"mu": 0}),
        ("g_8_2_5_s", {"lam": 0}),
        ("g_8_2_6_s", {"mu": 0}),
        ("g_8_2_8_s", {"lam": 0}),
    ]
    for key, params in cases:
        with pytest.raises(InputError):
            build(key, params)


def test_unknown_parameter_rejected():
    with pytest.raises(InputError):
        build("g_6_2", {"zeta": 1})


@pytest.mark.parametrize("params", [5, ["lam"], [("lam", 2)], "lam", 1.5])
def test_params_that_are_not_a_mapping_are_rejected(params):
    with pytest.raises(InputError, match="must be a mapping"):
        build("g_6_2", params)


def test_an_unknown_parameter_that_is_not_a_string_is_named():
    with pytest.raises(InputError, match="unknown parameter.*: 1, lam2"):
        build("g_6_2", {1: 2, "lam2": 3})


def test_odd_brackets_with_default_parameters():
    assert bracket_of(build("g_8_2_1_s"), "Y", "T") == {"Z1": 1}
    assert bracket_of(build("g_8_2_2_s"), "T", "T") == {
        "Z1": 1,
        "Z2": 1,
        "Z3": 1,
    }
    assert bracket_of(build("g_8_2_3_s"), "T", "T") == {"Z3": 1}
    assert bracket_of(build("g_8_2_4_s"), "Y", "T") == {"Z3": 1}
    q5 = build("g_8_2_5_s")
    assert bracket_of(q5, "Y", "T") == {"Z3": Fraction(1, 2)}
    assert bracket_of(q5, "T", "T") == {"X1": 1}
    assert bracket_of(build("g_8_2_6_s"), "T", "T") == {"X1": 1, "X2": 1}
    assert bracket_of(build("g_8_2_7_s"), "T", "T") == {"Z3": 1}
    assert bracket_of(build("g_8_2_8_s"), "Y", "T") == {"Z3": 1}
    q9 = build("g_8_2_9_s")
    assert bracket_of(q9, "Y", "T") == {"Z3": Fraction(1, 2)}
    assert bracket_of(q9, "T", "T") == {"X2": 1}


def test_parameters_scale_odd_brackets():
    q = build("g_8_2_1_s", {"lam": 2, "mu": -1, "nu": Fraction(1, 3)})
    assert bracket_of(q, "Y", "T") == {
        "Z1": 2,
        "Z2": -1,
        "Z3": Fraction(1, 3),
    }
    q8 = build("g_8_2_8_s", {"lam": Fraction(-5, 2)})
    assert bracket_of(q8, "Y", "T") == {"Z3": Fraction(-5, 2)}


def test_even_part_is_a_quadratic_subalgebra():
    """Restricting an 8-dimensional entry to its six even generators
    yields a valid quadratic Lie algebra (the grading guarantees the
    bracket closes; invariance and non-degeneracy must survive too)."""
    for key in QUADRATIC_KEYS:
        q = build(key)
        ne = q.basis.even_dim
        if ne == q.dim:
            continue
        sub_basis = GradedBasis(
            labels=q.basis.labels[:ne], parities=(0,) * ne
        )
        constants = {
            (i, j): dict(terms)
            for (i, j), terms in q.algebra.constants.items()
            if i < ne and j < ne
        }
        assert all(k < ne for terms in constants.values() for k in terms)
        sub = LieSuperalgebra(basis=sub_basis, constants=constants)
        gram = tuple(tuple(dense_gram(q.form)[i][:ne]) for i in range(ne))
        sub_q = QuadraticLieSuperalgebra(algebra=sub, form=gram_form(sub_basis, gram))
        assert validate_quadratic(sub_q).ok, key


def _block_matrix(even4, odd2):
    """A 6x6 derivation of span{Z1, Z2, X1, X2 | Y, T}, block by block."""
    rows = [list(row) + [0, 0] for row in even4] + [[0] * 4 + list(row) for row in odd2]
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


# the hand-written recipes the computed central reductions replaced, at
# default parameters (lam = mu = 1): the base was the abelian quadratic
# space span{Z1, Z2, X1, X2 | Y, T} with B(Zi, Xi) = B(Y, T) = 1
_DIAG_22 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
_JORDAN_EVEN = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, -1, -1]]
_NILPOTENT_ODD = [[0, 1], [0, 0]]
_HAND_WRITTEN = {
    "g_8_2_3_s": _block_matrix(_DIAG_22, _NILPOTENT_ODD),
    "g_8_2_4_s": _block_matrix(_DIAG_22, [[1, 0], [0, -1]]),
    "g_8_2_7_s": _block_matrix(_JORDAN_EVEN, _NILPOTENT_ODD),
    "g_8_2_8_s": _block_matrix(_JORDAN_EVEN, [[1, 0], [0, -1]]),
}


def test_reconstruction_data_exist_and_are_consistent():
    abelian = BilinearForm.from_pairs(
        GradedBasis(labels=("Z1", "Z2", "X1", "X2", "Y", "T"), parities=(0,) * 4 + (1, 1)),
        [("Z1", "X1", 1), ("Z2", "X2", 1), ("Y", "T", 1)],
    )
    for i in range(1, 10):
        key = f"g_8_2_{i}_s"
        recipe = reconstruction_datum(key)
        assert recipe.key == key
        assert recipe.base.dim == 6
        assert dense_gram(recipe.base.form) == dense_gram(abelian)
        assert recipe.derivation.degree == 0
        assert recipe.labels == ("X3", "Z3")
        assert recipe.catalog_order == build(key).basis.labels
        if key in _HAND_WRITTEN:
            assert recipe.base.basis == abelian.basis
            assert recipe.base.algebra.constants == {}
            assert recipe.derivation.matrix == _HAND_WRITTEN[key]
    for key in ("g_4_1_s", "h"):  # no Z3; not quadratic
        with pytest.raises(InputError):
            reconstruction_datum(key)


def test_heisenberg_refuses_a_negative_odd_count():
    with pytest.raises(InputError, match="heisenberg requires m >= 0"):
        build("h", {"m": -1})


@pytest.mark.parametrize("key", catalog_keys())
def test_the_default_params_build_the_default_algebra(key):
    params = default_params(key)
    assert list(params) == [p.name for p in get_entry(key).params]
    assert all(type(v) is Fraction for v in params.values())
    assert build(key, params) == build(key)
