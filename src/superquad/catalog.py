"""Built-in constructors for the named Lie superalgebras used in the tests.

Every entry is parameterized over exact rationals.  Eight-dimensional
entries store only the even-even and even-odd bracket tables; the odd-odd
brackets follow from invariance of B and are solved for, not hand-entered.
"""
from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from .algebra import GradedBasis, LieSuperalgebra, validate_lie_superalgebra
from .errors import EngineError, InputError
from .extensions import Superderivation, central_reduction
from .linalg import Rat, _combine, rat
from .quadratic import BilinearForm, QuadraticLieSuperalgebra, validate_quadratic

__all__ = [
    "ParameterSpec",
    "CatalogEntry",
    "OneDimExtensionRecipe",
    "catalog_keys",
    "get_entry",
    "default_params",
    "build",
    "reconstruction_datum",
]


@dataclass(frozen=True)
class ParameterSpec:
    name: str
    default: Rat
    constraint: str  # human-readable; enforcement lives in the builder
    integer: bool = False


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    description: str
    params: tuple[ParameterSpec, ...]
    quadratic: bool
    builder: Callable[[dict[str, Rat]], object]


def _normalize_params(
    entry: CatalogEntry, params: Mapping[str, object] | None
) -> dict[str, Rat]:
    if params is not None and not isinstance(params, Mapping):
        raise InputError(f"params of {entry.key} must be a mapping, not {type(params).__name__}")
    given = dict(params or {})
    out: dict[str, Rat] = {}
    for spec in entry.params:
        if spec.name in given:
            value = rat(given.pop(spec.name))
        else:
            value = rat(spec.default)
        if spec.integer and value.denominator != 1:
            raise InputError(
                f"parameter {spec.name} of {entry.key} must be an integer"
            )
        out[spec.name] = value
    if given:
        unknown = ", ".join(sorted(map(str, given)))
        raise InputError(f"unknown parameter(s) for {entry.key}: {unknown}")
    return out


def _quadratic(labels, parities, rows, pairs, name) -> QuadraticLieSuperalgebra:
    basis = GradedBasis(labels=tuple(labels), parities=tuple(parities))
    g = LieSuperalgebra.from_label_table(basis, rows, name=name)
    form = BilinearForm.from_pairs(basis, pairs)
    return QuadraticLieSuperalgebra(algebra=g, form=form)


def _derive_odd_odd_rows(labels, parities, rows, pairs):
    """Append the odd-odd brackets forced by invariance of the form.

    For odd a, b the bracket [a,b] is even and is pinned by
    B([a,b], u) = w_u = -B(a, [u, b]) over even basis vectors u, because
    the even block of B is non-degenerate: [a,b] = sum_u w_u (G^-1 column u),
    G^-1 being block diagonal and its even block symmetric.
    """
    basis = GradedBasis(labels=tuple(labels), parities=tuple(parities))
    table = LieSuperalgebra.from_label_table(basis, rows).bracket_table
    form = BilinearForm.from_pairs(basis, pairs)
    ne, n = basis.even_dim, basis.dim
    right = _combine(table, form.columns)  # (u, b) -> {a: B(e_a, [e_u, e_b])}
    w = {
        (i, j): {u: -x for u in range(ne) if (x := right.get((u, j), {}).get(i))}
        for i in range(ne, n)
        for j in range(i, n)
    }
    out = list(rows)
    for (i, j), coeffs in _combine(w, form.inverse_columns).items():
        if coeffs:
            terms = {basis.labels[s]: coeffs[s] for s in sorted(coeffs)}
            out.append((basis.labels[i], basis.labels[j], terms))
    return out


def _quadratic_completed(labels, parities, rows, pairs, name):
    full = _derive_odd_odd_rows(labels, parities, rows, pairs)
    return _quadratic(labels, parities, full, pairs, name)


# ---------------------------------------------------------------- Heisenberg
def _build_heisenberg(p: dict[str, Rat]) -> LieSuperalgebra:
    n = int(p["n"])
    m = int(p["m"])
    if n < 1:
        raise InputError("heisenberg requires n >= 1")
    if m < 0:
        raise InputError("heisenberg requires m >= 0")
    labels = (
        [f"X{i}" for i in range(1, 2 * n + 1)]
        + ["Z"]
        + [f"Y{j}" for j in range(1, m + 1)]
    )
    parities = [0] * (2 * n + 1) + [1] * m
    rows = [(f"X{i}", f"X{n + i}", {"Z": 1}) for i in range(1, n + 1)]
    rows += [(f"Y{j}", f"Y{j}", {"Z": 1}) for j in range(1, m + 1)]
    basis = GradedBasis(labels=tuple(labels), parities=tuple(parities))
    return LieSuperalgebra.from_label_table(basis, rows, name=f"h_{2*n+1},{m}")


# ------------------------------------------------- 4/6-dim with odd part
def _build_g_4_1_s(p) -> QuadraticLieSuperalgebra:
    return _quadratic(
        ["X0", "Y0", "X1", "Y1"],
        [0, 0, 1, 1],
        [("Y1", "Y1", {"X0": -2}), ("Y0", "Y1", {"X1": -2})],
        [("X0", "Y0", 1), ("X1", "Y1", 1)],
        "g_4_1_s",
    )


def _build_g_4_2_s(p) -> QuadraticLieSuperalgebra:
    return _quadratic(
        ["X0", "Y0", "X1", "Y1"],
        [0, 0, 1, 1],
        [
            ("X1", "Y1", {"X0": 1}),
            ("Y0", "X1", {"X1": 1}),
            ("Y0", "Y1", {"Y1": -1}),
        ],
        [("X0", "Y0", 1), ("X1", "Y1", 1)],
        "g_4_2_s",
    )


def _build_g_6_s(p) -> QuadraticLieSuperalgebra:
    return _quadratic(
        ["X0", "Y0", "X1", "Y1", "Z1", "T1"],
        [0, 0, 1, 1, 1, 1],
        [
            ("Z1", "T1", {"X0": -1}),
            ("Y0", "Z1", {"Y1": -1}),
            ("Y0", "T1", {"X1": -1}),
        ],
        [("X0", "Y0", 1), ("X1", "Z1", 1), ("Y1", "T1", 1)],
        "g_6_s",
    )


# ----------------------------------------------------- 6-dim even quadratic
_EVEN6_LABELS = ["Z1", "Z2", "Z3", "X1", "X2", "X3"]
_EVEN6_PAIRS = [("X1", "Z1", 1), ("X2", "Z2", 1), ("X3", "Z3", 1)]


def _rows_g_6_1():
    return [
        ("X1", "X2", {"Z3": 1}),
        ("X2", "X3", {"Z1": 1}),
        ("X3", "X1", {"Z2": 1}),
    ]


def _rows_g_6_2(lam: Rat):
    return [
        ("X3", "Z1", {"Z1": 1}),
        ("X3", "Z2", {"Z2": lam}),
        ("X3", "X1", {"X1": -1}),
        ("X3", "X2", {"X2": -lam}),
        ("Z1", "X1", {"Z3": 1}),
        ("Z2", "X2", {"Z3": lam}),
    ]


def _rows_g_6_3():
    return [
        ("X3", "Z1", {"Z1": 1}),
        ("X3", "Z2", {"Z1": 1, "Z2": 1}),
        ("X3", "X1", {"X1": -1, "X2": -1}),
        ("X3", "X2", {"X2": -1}),
        ("Z1", "X1", {"Z3": 1}),
        ("Z2", "X1", {"Z3": 1}),
        ("Z2", "X2", {"Z3": 1}),
    ]


def _build_g_6_1(p) -> QuadraticLieSuperalgebra:
    return _quadratic(
        _EVEN6_LABELS, [0] * 6, _rows_g_6_1(), _EVEN6_PAIRS, "g_6_1"
    )


def _build_g_6_2(p) -> QuadraticLieSuperalgebra:
    lam = p["lam"]
    if lam == 0:
        raise InputError("g_6_2 requires lam != 0")
    return _quadratic(
        _EVEN6_LABELS, [0] * 6, _rows_g_6_2(lam), _EVEN6_PAIRS, "g_6_2"
    )


def _build_g_6_3(p) -> QuadraticLieSuperalgebra:
    return _quadratic(
        _EVEN6_LABELS, [0] * 6, _rows_g_6_3(), _EVEN6_PAIRS, "g_6_3"
    )


# ------------------------------------------------------ 8-dim (6 even, 2 odd)
_LABELS8 = _EVEN6_LABELS + ["Y", "T"]
_PARITIES8 = [0] * 6 + [1, 1]
_PAIRS8 = _EVEN6_PAIRS + [("Y", "T", 1)]


def _build8(even_rows, odd_action_rows, name):
    return _quadratic_completed(
        _LABELS8, _PARITIES8, even_rows + odd_action_rows, _PAIRS8, name
    )


def _build_g_8_2_1_s(p) -> QuadraticLieSuperalgebra:
    lam, mu, nu = p["lam"], p["mu"], p["nu"]
    if lam == 0 and mu == 0 and nu == 0:
        raise InputError("g_8_2_1_s requires (lam, mu, nu) != (0, 0, 0)")
    action = [
        ("X1", "Y", {"Y": lam}),
        ("X1", "T", {"T": -lam}),
        ("X2", "Y", {"Y": mu}),
        ("X2", "T", {"T": -mu}),
        ("X3", "Y", {"Y": nu}),
        ("X3", "T", {"T": -nu}),
    ]
    return _build8(_rows_g_6_1(), action, "g_8_2_1_s")


def _build_g_8_2_2_s(p) -> QuadraticLieSuperalgebra:
    lam, mu = p["lam"], p["mu"]
    action = [
        ("X3", "T", {"Y": 1}),
        ("X1", "T", {"Y": lam}),
        ("X2", "T", {"Y": mu}),
    ]
    return _build8(_rows_g_6_1(), action, "g_8_2_2_s")


def _build_g_8_2_3_s(p) -> QuadraticLieSuperalgebra:
    lam = p["lam"]
    if lam == 0:
        raise InputError("g_8_2_3_s requires lam != 0")
    return _build8(_rows_g_6_2(lam), [("X3", "T", {"Y": 1})], "g_8_2_3_s")


def _build_g_8_2_4_s(p) -> QuadraticLieSuperalgebra:
    lam, mu = p["lam"], p["mu"]
    if lam == 0 or mu == 0:
        raise InputError("g_8_2_4_s requires lam != 0 and mu != 0")
    action = [("X3", "Y", {"Y": mu}), ("X3", "T", {"T": -mu})]
    return _build8(_rows_g_6_2(lam), action, "g_8_2_4_s")


def _build_g_8_2_5_s(p) -> QuadraticLieSuperalgebra:
    lam = p["lam"]
    if lam == 0:
        raise InputError("g_8_2_5_s requires lam != 0")
    half = Fraction(1, 2)
    action = [
        ("X3", "Y", {"Y": half}),
        ("X3", "T", {"T": -half}),
        ("Z1", "T", {"Y": 1}),
    ]
    return _build8(_rows_g_6_2(lam), action, "g_8_2_5_s")


def _build_g_8_2_6_s(p) -> QuadraticLieSuperalgebra:
    mu = p["mu"]
    if mu == 0:
        raise InputError("g_8_2_6_s requires mu != 0")
    half = Fraction(1, 2)
    # the even-part parameter is forced to 1 by the Jacobi identity once
    # [Z2, T] = mu Y is present
    action = [
        ("X3", "Y", {"Y": half}),
        ("X3", "T", {"T": -half}),
        ("Z1", "T", {"Y": 1}),
        ("Z2", "T", {"Y": mu}),
    ]
    return _build8(_rows_g_6_2(Fraction(1)), action, "g_8_2_6_s")


def _build_g_8_2_7_s(p) -> QuadraticLieSuperalgebra:
    return _build8(_rows_g_6_3(), [("X3", "T", {"Y": 1})], "g_8_2_7_s")


def _build_g_8_2_8_s(p) -> QuadraticLieSuperalgebra:
    lam = p["lam"]
    if lam == 0:
        raise InputError("g_8_2_8_s requires lam != 0")
    action = [("X3", "Y", {"Y": lam}), ("X3", "T", {"T": -lam})]
    return _build8(_rows_g_6_3(), action, "g_8_2_8_s")


def _build_g_8_2_9_s(p) -> QuadraticLieSuperalgebra:
    half = Fraction(1, 2)
    action = [
        ("X3", "Y", {"Y": half}),
        ("X3", "T", {"T": -half}),
        ("Z2", "T", {"Y": 1}),
    ]
    return _build8(_rows_g_6_3(), action, "g_8_2_9_s")


def _build_g_dec(p) -> QuadraticLieSuperalgebra:
    # decomposable: a quadratic even algebra orthogonally glued to a
    # central odd symplectic plane ([even, odd] = 0, [odd, odd] = 0)
    return _quadratic(
        _LABELS8, _PARITIES8, _rows_g_6_1(), _PAIRS8, "g_dec"
    )


_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        key="h",
        description=(
            "Heisenberg Lie superalgebra h_{2n+1,m}: [X_i, X_{n+i}] = Z, "
            "[Y_j, Y_j] = Z, center spanned by Z (no invariant form)"
        ),
        params=(
            ParameterSpec("n", Fraction(1), "integer, n >= 1", integer=True),
            ParameterSpec("m", Fraction(0), "integer, m >= 0", integer=True),
        ),
        quadratic=False,
        builder=_build_heisenberg,
    ),
    CatalogEntry(
        key="g_4_1_s",
        description=(
            "4-dimensional quadratic: [Y1,Y1] = -2 X0, [Y0,Y1] = -2 X1, "
            "B(X0,Y0) = B(X1,Y1) = 1"
        ),
        params=(),
        quadratic=True,
        builder=_build_g_4_1_s,
    ),
    CatalogEntry(
        key="g_4_2_s",
        description=(
            "4-dimensional quadratic: [X1,Y1] = X0, [Y0,X1] = X1, "
            "[Y0,Y1] = -Y1, B(X0,Y0) = B(X1,Y1) = 1"
        ),
        params=(),
        quadratic=True,
        builder=_build_g_4_2_s,
    ),
    CatalogEntry(
        key="g_6_s",
        description=(
            "6-dimensional quadratic with 4-dimensional odd part: "
            "[Z1,T1] = -X0, [Y0,Z1] = -Y1, [Y0,T1] = -X1"
        ),
        params=(),
        quadratic=True,
        builder=_build_g_6_s,
    ),
    CatalogEntry(
        key="g_6_1",
        description=(
            "6-dimensional even quadratic over the dual pairs "
            "B(Xi,Zi) = 1: [X1,X2] = Z3, [X2,X3] = Z1, [X3,X1] = Z2"
        ),
        params=(),
        quadratic=True,
        builder=_build_g_6_1,
    ),
    CatalogEntry(
        key="g_6_2",
        description=(
            "6-dimensional even quadratic family: [X3,Z1] = Z1, "
            "[X3,Z2] = lam Z2, [X3,X1] = -X1, [X3,X2] = -lam X2, "
            "[Z1,X1] = Z3, [Z2,X2] = lam Z3"
        ),
        params=(ParameterSpec("lam", Fraction(1), "lam != 0"),),
        quadratic=True,
        builder=_build_g_6_2,
    ),
    CatalogEntry(
        key="g_6_3",
        description=(
            "6-dimensional even quadratic: [X3,Z1] = Z1, [X3,Z2] = Z1+Z2, "
            "[X3,X1] = -X1-X2, [X3,X2] = -X2, [Z1,X1] = [Z2,X1] = "
            "[Z2,X2] = Z3"
        ),
        params=(),
        quadratic=True,
        builder=_build_g_6_3,
    ),
    CatalogEntry(
        key="g_8_2_1_s",
        description=(
            "8-dimensional quadratic over the g_6_1 even part with diagonal "
            "odd action: [Xi,Y] = c_i Y, [Xi,T] = -c_i T for "
            "(c_1,c_2,c_3) = (lam,mu,nu)"
        ),
        params=(
            ParameterSpec("lam", Fraction(1), "(lam,mu,nu) != (0,0,0)"),
            ParameterSpec("mu", Fraction(0), "(lam,mu,nu) != (0,0,0)"),
            ParameterSpec("nu", Fraction(0), "(lam,mu,nu) != (0,0,0)"),
        ),
        quadratic=True,
        builder=_build_g_8_2_1_s,
    ),
    CatalogEntry(
        key="g_8_2_2_s",
        description=(
            "8-dimensional quadratic over the g_6_1 even part with "
            "nilpotent odd action: [X3,T] = Y, [X1,T] = lam Y, "
            "[X2,T] = mu Y"
        ),
        params=(
            ParameterSpec("lam", Fraction(1), "unconstrained"),
            ParameterSpec("mu", Fraction(1), "unconstrained"),
        ),
        quadratic=True,
        builder=_build_g_8_2_2_s,
    ),
    CatalogEntry(
        key="g_8_2_3_s",
        description=(
            "8-dimensional quadratic over the g_6_2(lam) even part with "
            "nilpotent odd action [X3,T] = Y"
        ),
        params=(ParameterSpec("lam", Fraction(1), "lam != 0"),),
        quadratic=True,
        builder=_build_g_8_2_3_s,
    ),
    CatalogEntry(
        key="g_8_2_4_s",
        description=(
            "8-dimensional quadratic over the g_6_2(lam) even part with "
            "diagonal odd action [X3,Y] = mu Y, [X3,T] = -mu T"
        ),
        params=(
            ParameterSpec("lam", Fraction(1), "lam != 0"),
            ParameterSpec("mu", Fraction(1), "mu != 0"),
        ),
        quadratic=True,
        builder=_build_g_8_2_4_s,
    ),
    CatalogEntry(
        key="g_8_2_5_s",
        description=(
            "8-dimensional quadratic over the g_6_2(lam) even part with "
            "mixed odd action: [X3,Y] = Y/2, [X3,T] = -T/2, [Z1,T] = Y"
        ),
        params=(ParameterSpec("lam", Fraction(1), "lam != 0"),),
        quadratic=True,
        builder=_build_g_8_2_5_s,
    ),
    CatalogEntry(
        key="g_8_2_6_s",
        description=(
            "8-dimensional quadratic over the g_6_2(1) even part (the "
            "even-part parameter is forced to 1 by Jacobi) with mixed odd "
            "action: [X3,Y] = Y/2, [X3,T] = -T/2, [Z1,T] = Y, [Z2,T] = mu Y"
        ),
        params=(ParameterSpec("mu", Fraction(1), "mu != 0"),),
        quadratic=True,
        builder=_build_g_8_2_6_s,
    ),
    CatalogEntry(
        key="g_8_2_7_s",
        description=(
            "8-dimensional quadratic over the g_6_3 even part with "
            "nilpotent odd action [X3,T] = Y"
        ),
        params=(),
        quadratic=True,
        builder=_build_g_8_2_7_s,
    ),
    CatalogEntry(
        key="g_8_2_8_s",
        description=(
            "8-dimensional quadratic over the g_6_3 even part with "
            "diagonal odd action [X3,Y] = lam Y, [X3,T] = -lam T"
        ),
        params=(ParameterSpec("lam", Fraction(1), "lam != 0"),),
        quadratic=True,
        builder=_build_g_8_2_8_s,
    ),
    CatalogEntry(
        key="g_8_2_9_s",
        description=(
            "8-dimensional quadratic over the g_6_3 even part with mixed "
            "odd action: [X3,Y] = Y/2, [X3,T] = -T/2, [Z2,T] = Y"
        ),
        params=(),
        quadratic=True,
        builder=_build_g_8_2_9_s,
    ),
    CatalogEntry(
        key="g_dec",
        description=(
            "decomposable 8-dimensional quadratic: the g_6_1 even part "
            "orthogonally glued to a central odd symplectic plane "
            "([even, odd] = 0, [odd, odd] = 0)"
        ),
        params=(),
        quadratic=True,
        builder=_build_g_dec,
    ),
)

_REGISTRY: dict[str, CatalogEntry] = {e.key: e for e in _ENTRIES}


def catalog_keys() -> tuple[str, ...]:
    return tuple(e.key for e in _ENTRIES)


def get_entry(key: str) -> CatalogEntry:
    try:
        return _REGISTRY[key]
    except KeyError:
        raise InputError(
            f"unknown catalog key {key!r}; known keys: "
            + ", ".join(catalog_keys())
        ) from None


def default_params(key: str) -> dict[str, Rat]:
    entry = get_entry(key)
    return {p.name: rat(p.default) for p in entry.params}


def build(key: str, params: Mapping[str, object] | None = None):
    """Build a catalog algebra; validates the output before returning."""
    entry = get_entry(key)
    bound = _normalize_params(entry, params)
    out = entry.builder(bound)
    if entry.quadratic:
        report = validate_quadratic(out)
    else:
        report = validate_lie_superalgebra(out)
    report._raise_first(f"catalog entry {key} failed validation", EngineError)
    return out


# --------------------------------------------------- reconstruction recipes
@dataclass(frozen=True)
class OneDimExtensionRecipe:
    """Data rebuilding a catalog entry as a one-dimensional double
    extension of its central reduction."""

    key: str
    base: QuadraticLieSuperalgebra
    derivation: Superderivation
    labels: tuple[str, str]  # (new even generator, new central vector)
    catalog_order: tuple[str, ...]


def reconstruction_datum(
    key: str, params: Mapping[str, object] | None = None
) -> OneDimExtensionRecipe:
    """One-dimensional double-extension data for an entry with a central
    Z3 dual to X3, computed by ``central_reduction(build(key, params),
    "Z3", "X3")``, whose certificate rebuilds the entry exactly."""
    q = build(key, params)
    base, derivation = central_reduction(q, "Z3", "X3")
    return OneDimExtensionRecipe(
        key=key,
        base=base,
        derivation=derivation,
        labels=("X3", "Z3"),
        catalog_order=q.basis.labels,
    )
