"""The package's public names, pinned: adding or removing an export is a
deliberate change of this list; and the contract of its value types."""
import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import superquad
from superquad import (
    X,
    GradedBasis,
    LieSuperalgebra,
    Superderivation,
    build,
    cochain_basis,
    cohomology,
    derived_series,
    differential_matrix,
    get_entry,
    is_superderivation,
    reconstruction_datum,
)
from superquad.extensions import ExtensionDatum
from superquad.serialization import dumps, loads

PUBLIC_NAMES = [
    "BilinearForm",
    "CatalogEntry",
    "Cochain",
    "CochainBasis",
    "CohomologyResult",
    "DifferentialMatrix",
    "EngineError",
    "ExtensionDatum",
    "GradedBasis",
    "H",
    "InputError",
    "LieSuperalgebra",
    "Monomial",
    "OneDimExtensionRecipe",
    "ParameterSpec",
    "QuadraticLieSuperalgebra",
    "Rat",
    "ResourceLimitError",
    "Sp2Element",
    "Subspace",
    "Superderivation",
    "ValidationReport",
    "Violation",
    "X",
    "Y",
    "ad_superderivation",
    "algebra_from_dict",
    "algebra_to_dict",
    "associated_three_form",
    "betti_table",
    "build",
    "catalog_keys",
    "center",
    "central_reduction",
    "class_vector",
    "classify",
    "cochain_basis",
    "cochain_dimension",
    "cohomology",
    "cohomology_report",
    "commutator",
    "default_params",
    "derived_series",
    "diagonal_weights",
    "differential_direct",
    "differential_matrix",
    "differential_via_poisson",
    "double_extension",
    "get_entry",
    "is_coboundary",
    "is_cocycle",
    "is_skew_superderivation",
    "is_solvable",
    "is_superderivation",
    "load",
    "loads",
    "monomials_of_degree",
    "normal_form",
    "one_dim_double_extension",
    "poisson_bracket",
    "rat",
    "rat_str",
    "rational_sqrt",
    "reconstruction_datum",
    "reorder_quadratic",
    "save",
    "skew_superderivation_space",
    "validate_extension_datum",
    "validate_grading_and_skew",
    "validate_lie_superalgebra",
    "validate_quadratic",
    "validate_super_jacobi",
    "wedge",
]


def test_public_names_are_pinned():
    # submodules are left out: each one is an attribute once any code imports it
    names = [n for n in dir(superquad) if not n.startswith("_")]
    assert sorted(n for n in names if not isinstance(getattr(superquad, n), ModuleType)) == PUBLIC_NAMES


def _eight(key: str) -> str:
    """key, or g_8_2_2_s for g_6_2, which is not a one-dimensional double extension."""
    return {"g_6_2": "g_8_2_2_s"}.get(key, key)


def _extension(key: str) -> ExtensionDatum:
    recipe = reconstruction_datum(_eight(key))
    h = LieSuperalgebra(GradedBasis(("X3",), (0,)), {})
    return ExtensionDatum(recipe.base, h, (recipe.derivation,))


def _report(key: str):
    """The failed check of the identity as a superderivation of the algebra of key."""
    q = build(key)
    one = tuple(tuple(Fraction(int(i == j)) for j in range(q.dim)) for i in range(q.dim))
    return is_superderivation(q.algebra, Superderivation(one, 0), 0)


# each value type: (its instance for a catalog key, the constructor's parameters
# in order, the fields its repr shows, the defaults); the instances of two keys differ
VALUE_TYPES = {
    "GradedBasis": (lambda k: build(k).basis, ("labels", "parities"), None, {}),
    "LieSuperalgebra": (lambda k: build(k).algebra, ("basis", "constants", "name"), None, {"name": ""}),
    "Violation": (lambda k: _report(k).violations[-1], ("rule", "witness", "message"), None, {}),
    "ValidationReport": (_report, ("violations",), None, {}),
    "Subspace": (lambda k: derived_series(build(k))[1], ("ambient", "rows"), None, {}),
    "ParameterSpec": (lambda k: get_entry(_eight(k)).params[-1], ("name", "default", "constraint", "integer"), None,
                      {"integer": False}),
    "CatalogEntry": (get_entry, ("key", "description", "params", "quadratic", "builder"), None, {}),
    "OneDimExtensionRecipe": (lambda k: reconstruction_datum(_eight(k)),
                              ("key", "base", "derivation", "labels", "catalog_order"), None, {}),
    "Monomial": (lambda k: build(k)._three_form.terms[0][0], ("even", "odd"), None, {}),
    "Cochain": (lambda k: build(k)._three_form, ("basis", "terms"), None, {}),
    "_PoissonLeft": (lambda k: build(k)._three_form_left, ("basis", "dual", "degree"), None, {}),
    "CochainBasis": (lambda k: cochain_basis(build(k), 2), ("degree", "keys", "basis"), ("degree", "keys"), {}),
    "DifferentialMatrix": (lambda k: differential_matrix(build(k), 1), ("source", "target", "columns"), None, {}),
    "CohomologyResult": (
        lambda k: cohomology(build(k), 3),
        ("degree", "dim_cochains", "dim_cocycles", "dim_coboundaries", "betti", "representatives",
         "_complex", "_quotient"),
        ("degree", "dim_cochains", "dim_cocycles", "dim_coboundaries", "betti", "representatives"),
        {"_complex": None, "_quotient": None},
    ),
    "Superderivation": (lambda k: reconstruction_datum(_eight(k)).derivation, ("matrix", "degree"), None, {}),
    "ExtensionDatum": (_extension, ("base", "h", "psi", "gamma"), None, {"gamma": None}),
    "BilinearForm": (lambda k: build(k).form, ("basis", "gram"), None, {}),
    "QuadraticLieSuperalgebra": (build, ("algebra", "form"), None, {}),
    "Sp2Element": (lambda k: X.scale(build(k).dim), ("a", "b", "c"), None, {}),
}


# the types that hold an algebra, whose constants are a dict
HASHED = ("ExtensionDatum", "LieSuperalgebra", "OneDimExtensionRecipe", "QuadraticLieSuperalgebra")


def _hash(x: object) -> object:
    """x's hash, or TypeError when x holds an unhashable field."""
    try:
        return hash(x)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_types_keep_the_dataclass_contract(name):
    make, params, shown, defaults = VALUE_TYPES[name]
    obj, other = make("g_8_2_5_s"), make("g_6_2")
    cls = type(obj)
    assert cls.__name__ == name and type(other) is cls
    values = [getattr(obj, p) for p in params]
    # positional and keyword construction, the defaults
    positional, keyword = cls(*values), cls(**dict(zip(params, values)))
    bare = cls(*(v for p, v in zip(params, values) if p not in defaults))
    assert all(getattr(bare, p) == d for p, d in defaults.items())
    # equality and hash: every compared field, and only those
    assert positional == keyword == obj and not positional != obj and obj != other
    assert obj.__eq__(object()) is NotImplemented
    assert _hash(positional) == _hash(keyword) == _hash(obj)
    if name in HASHED:  # an algebra and what holds one hash, alike for equal instances
        again = make("g_8_2_5_s")
        assert again is not obj and again == obj and _hash(again) == _hash(obj) != TypeError
        if name in ("LieSuperalgebra", "QuadraticLieSuperalgebra"):
            read = loads(dumps(obj))
            assert read is not obj and read == obj and _hash(read) == _hash(obj)
    if name == "CohomologyResult":
        assert bare == obj and bare._complex is None and obj._complex is not None
    # the repr of the dataclass these types were
    shown = shown or params
    mirror = dataclasses.make_dataclass(name, shown)
    assert repr(obj) == repr(mirror(*(getattr(obj, f) for f in shown)))
    # assignment and deletion refused, the object unchanged
    for attr in (*params, "other"):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert all(getattr(obj, p) is v for p, v in zip(params, values)) and obj == positional
    # pickle and deepcopy round trips
    for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(copied) is cls and copied == obj and _hash(copied) == _hash(obj)


def _fresh(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this package."""
    src = str(Path(superquad.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    return out.stdout.strip()


def test_importing_the_package_and_its_cli_loads_no_dataclasses():
    assert _fresh("import sys, superquad, superquad.cli; print('dataclasses' in sys.modules)") == "False"


def test_sp2_is_imported_on_first_use():
    code = (
        "import sys, superquad, superquad.cli\n"
        "print('superquad.sp2' in sys.modules)\n"
        "print(superquad.normal_form(superquad.X)[0])\n"
        "print('superquad.sp2' in sys.modules, superquad.X is sys.modules['superquad.sp2'].X)"
    )
    assert _fresh(code).splitlines() == ["False", "nilpotent", "True True"]
