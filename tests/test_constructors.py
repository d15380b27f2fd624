"""Each input rule belongs to the constructor that relies on it: these
probes reach every check of GradedBasis, LieSuperalgebra and its
from_index_table and from_label_table, BilinearForm, Superderivation,
ExtensionDatum, one_dim_double_extension's arguments and rat, and each must
end as InputError, never as a traceback or a silent wrong value."""
import re
from fractions import Fraction
from types import MappingProxyType

import pytest

from helpers import contract_vector
from superquad import BilinearForm, Cochain, GradedBasis, LieSuperalgebra, build
from superquad.algebra import center, derived_series, diagonal_weights, inner_torus, is_solvable
from superquad.errors import InputError
from superquad.extensions import ExtensionDatum, Superderivation, one_dim_double_extension, skew_superderivation_space
from superquad.linalg import rat
from superquad.serialization import algebra_from_dict, algebra_to_dict, load, save

AB = GradedBasis(labels=("a", "b"), parities=(0, 0))
ONE = Fraction(1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: rat(True),
        lambda: rat(False),
        lambda: build("g_6_2", {"lam": True}),
        lambda: Cochain.unit(AB).scale(True),
        lambda: BilinearForm.from_pairs(AB, [("a", "a", True)]),
    ],
    ids=["rat-True", "rat-False", "build-param", "Cochain.scale", "from_pairs"],
)
def test_a_bool_is_not_a_rational(call):
    with pytest.raises(InputError, match="not an exact rational: (True|False) of type bool"):
        call()


@pytest.mark.parametrize(
    "labels, parities, message",
    [
        ((5,), (0,), "basis label 5 is not a non-empty string"),
        (([1],), (0,), r"basis label \[1\] is not a non-empty string"),
        (("",), (0,), "basis label '' is not a non-empty string"),
        (None, (0,), "must be tuples"),
        (("a",), [0], "must be tuples"),
        (("a", "b"), (0, 2), "parity 2 of 'b': parities must be 0 or 1"),
    ],
    ids=repr,
)
def test_graded_basis_rules(labels, parities, message):
    with pytest.raises(InputError, match=message):
        GradedBasis(labels=labels, parities=parities)


@pytest.mark.parametrize(
    "constants, message",
    [
        ({(0.5, 1): {0: ONE}}, r"constant key \(0.5, 1\)"),
        ({(True, 1): {0: ONE}}, r"constant key \(True, 1\)"),
        ({5: {0: ONE}}, "constant key 5"),
        ({(0, 1, 1): {0: ONE}}, r"constant key \(0, 1, 1\)"),
        ({(0, 1): 5}, r"constant entry for \(0, 1\) must be a nonempty mapping"),
        ({(0, 1): {True: ONE}}, "constant target True out of range"),
        ({(0, 1): {0.0: ONE}}, "constant target 0.0 out of range"),
        ({(0, 1): {2: ONE}}, "constant target 2 out of range"),
        ({(0, 1): {1: Fraction(0)}}, r"constant for \(0, 1\)->1 must be a nonzero Fraction"),
        ({(0, 1): {1: 1.0}}, r"constant for \(0, 1\)->1 must be a nonzero Fraction"),
    ],
    ids=repr,
)
def test_lie_superalgebra_takes_int_indices_in_range(constants, message):
    with pytest.raises(InputError, match=message):
        LieSuperalgebra(AB, constants)


@pytest.mark.parametrize(
    "row, message",
    [
        ((0, 1, {2: 1}), "constant target 2 out of range"),
        ((0, 1, {-1: 1}), "constant target -1 out of range"),
        ((0, 1, {1.5: 1}), "constant target 1.5 out of range"),
        ((0, 1, {"1": 1}), "constant target '1' out of range"),
        ((0.5, 1, {0: 1}), r"bracket indices \(0.5, 1\) out of range"),
        ((True, 1, {0: 1}), r"bracket indices \(True, 1\) out of range"),
        (("0", 1, {0: 1}), r"bracket indices \('0', 1\) out of range"),
        ((0, 1), r"bracket row \(0, 1\) is not"),
        (5, "bracket row 5 is not"),
        ((0, 0, 5), "must be a mapping"),
        ((0, 1, [(0, 1)]), "must be a mapping"),
    ],
    ids=repr,
)
def test_from_index_table_rules(row, message):
    with pytest.raises(InputError, match=message):
        LieSuperalgebra.from_index_table(AB, [row])


def test_from_index_table_checks_each_term_as_it_folds_a_row():
    # a zero coefficient is dropped before its target is read, as the
    # constructor never sees it; the first fault in table order is reported
    g = LieSuperalgebra.from_index_table(AB, [(0, 1, {0: 0, 7: 0, 1: 2})])
    assert g.constants == {(0, 1): {1: Fraction(2)}}
    assert LieSuperalgebra.from_index_table(AB, [(1, 0, {"x": Fraction(0)})]).constants == {}
    with pytest.raises(InputError, match="constant target 2 out of range"):
        LieSuperalgebra.from_index_table(AB, [(0, 1, {2: 1}), (1, 0, {0: 1})])


class _Fraction(Fraction):
    """A Fraction subclass: it must take the isinstance path, not the exact-type one."""


class _Int(int):
    pass


ABC = GradedBasis(labels=("a", "b", "c"), parities=(0, 0, 0))


def test_a_mapping_or_fraction_subclass_builds_what_a_dict_or_fraction_builds():
    proxy = MappingProxyType
    plain = LieSuperalgebra(ABC, {(0, 1): {2: Fraction(3, 2)}})
    assert LieSuperalgebra(ABC, {(0, 1): proxy({2: _Fraction(3, 2)})}) == plain
    assert LieSuperalgebra(ABC, proxy({(0, 1): {2: Fraction(3, 2)}})) == plain
    assert LieSuperalgebra.from_index_table(ABC, [(0, 1, proxy({2: _Fraction(3, 2)}))]) == plain
    assert LieSuperalgebra.from_index_table(ABC, [(1, 0, proxy({2: _Fraction(-3, 2)}))]) == plain
    assert LieSuperalgebra.from_index_table(ABC, [(0, 1, {2: _Int(3)})]).constants == {(0, 1): {2: 3}}
    rows = [{0: Fraction(1)}, {2: Fraction(1, 2)}, {1: Fraction(1, 2)}]
    form = BilinearForm(ABC, rows)
    assert BilinearForm(ABC, [proxy({j: _Fraction(x) for j, x in row.items()}) for row in rows]) == form
    assert BilinearForm(ABC, tuple(map(proxy, rows))) == form
    assert rat(_Fraction(3, 2)) == Fraction(3, 2) and rat(_Int(3)) == 3 and type(rat(_Int(3))) is Fraction
    with pytest.raises(InputError, match=r"constant for \(0, 1\)->2 must be a nonzero Fraction"):
        LieSuperalgebra(ABC, {(0, 1): proxy({2: _Fraction(0)})})
    with pytest.raises(InputError, match="constant target 5 out of range"):
        LieSuperalgebra.from_index_table(ABC, [(0, 1, proxy({5: _Fraction(1)}))])


def test_a_document_of_read_only_mappings_loads_as_its_dicts_do():
    q = build("g_4_1_s")
    doc = algebra_to_dict(q)

    def frozen(x):
        if isinstance(x, dict):
            return MappingProxyType({k: frozen(v) for k, v in x.items()})
        return [frozen(v) for v in x] if isinstance(x, list) else x

    assert algebra_from_dict(frozen(doc)) == algebra_from_dict(doc) == q


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LieSuperalgebra(AB, 5), "constants must be a mapping, not int"),
        (lambda: LieSuperalgebra(AB, [((0, 1), {0: ONE})]), "constants must be a mapping, not list"),
        (lambda: LieSuperalgebra(None, {}), "basis must be a GradedBasis, not NoneType"),
        (lambda: LieSuperalgebra.from_index_table(AB, 5), "bracket table must be an iterable of rows, not int"),
        (lambda: LieSuperalgebra.from_index_table(None, []), "basis must be a GradedBasis, not NoneType"),
        (lambda: LieSuperalgebra.from_label_table(AB, 5), "bracket table must be an iterable of rows, not int"),
        (lambda: LieSuperalgebra.from_label_table(AB, [("a", "b", 5)]), r"bracket terms for \('a', 'b'\) must be a mapping"),
        (lambda: LieSuperalgebra.from_label_table(AB, [("a", "b")]), r"bracket row \('a', 'b'\) is not"),
        (lambda: LieSuperalgebra.from_label_table(AB, [5]), "bracket row 5 is not"),
        (lambda: LieSuperalgebra.from_label_table("ab", []), "basis must be a GradedBasis, not str"),
    ],
    ids=[
        "constants-int", "constants-list", "basis-None", "index-table-int", "index-table-basis",
        "label-table-int", "label-terms-int", "label-row-pair", "label-row-int", "label-table-basis",
    ],
)
def test_lie_superalgebra_checks_its_fields_and_tables(call, message):
    with pytest.raises(InputError, match=message):
        call()


@pytest.mark.parametrize("name", [5, ["x"], None, b"x"], ids=repr)
def test_every_constructor_refuses_a_name_that_is_not_a_string(name):
    """A name that is not a str is refused with the message of ``loads``:
    5 would be written by ``dumps`` and refused by ``loads``, and ["x"]
    would make an algebra whose hash raises TypeError."""
    message = re.escape(f"'name' must be a string, not {type(name).__name__}")
    for make in (
        lambda: LieSuperalgebra(AB, {}, name=name),
        lambda: LieSuperalgebra.from_index_table(AB, [(0, 1, {0: 1})], name=name),
        lambda: LieSuperalgebra.from_label_table(AB, [("a", "b", {"a": 1})], name=name),
    ):
        with pytest.raises(InputError, match=message):
            make()


def test_a_named_algebra_is_read_back_as_it_was_saved(tmp_path):
    path = tmp_path / "named.json"
    for g in (
        LieSuperalgebra.from_label_table(AB, [("a", "b", {"a": 1})], name="solvable"),
        LieSuperalgebra(AB, {(0, 1): {0: ONE}}, name="solvable"),
        build("g_4_1_s"),
    ):
        save(str(path), g)
        back = load(str(path))
        assert back == g and hash(back) == hash(g)
        assert getattr(back, "algebra", back).name == getattr(g, "algebra", g).name != ""


@pytest.mark.parametrize(
    "labels, message",
    [
        (("e", "f", "g"), "labels must be a pair"),
        (("e",), "labels must be a pair"),
        (5, "labels must be a pair"),
        ("ef", "labels must be a pair"),
        ((5, "f"), "basis label 5 is not a non-empty string"),
        (("e", ""), "basis label '' is not a non-empty string"),
    ],
    ids=repr,
)
def test_one_dim_double_extension_checks_its_labels(labels, message):
    q = build("g_4_1_s")
    d = skew_superderivation_space(q, 0)[0]
    with pytest.raises(InputError, match=message):
        one_dim_double_extension(q, d, labels=labels)


def test_one_dim_double_extension_checks_its_arguments():
    q = build("g_4_1_s")
    d = skew_superderivation_space(q, 0)[0]
    with pytest.raises(InputError, match="needs a quadratic Lie superalgebra"):
        one_dim_double_extension(q.algebra, d)
    with pytest.raises(InputError, match="the derivation must be a Superderivation, not tuple"):
        one_dim_double_extension(q, d.matrix)


@pytest.mark.parametrize(
    "rows",
    [5, None, (5, 5), ((0, 1), 5), {0: (0, 1), 1: (1, 0)}, ((0, 1), {0: 1, 1: 0}), ({0: 1},), ({1: 1}, {0: 1}, {})],
    ids=repr,
)
def test_form_rows_are_one_mapping_per_basis_vector(rows):
    with pytest.raises(InputError, match="form rows must be 2 mappings"):
        BilinearForm(AB, rows=rows)


@pytest.mark.parametrize("column", [2, -1, True, 1.0, "b", None], ids=repr)
def test_form_columns_are_basis_indices(column):
    with pytest.raises(InputError, match="out of range"):
        BilinearForm(AB, rows=({column: 1}, {}))


@pytest.mark.parametrize(
    "matrix",
    [5, None, (5,), [{0: 1}], ((0, 1), 5), ((0, 1), {0: 0, 1: 1})],
    ids=repr,
)
def test_superderivation_matrix_must_be_square_rows(matrix):
    with pytest.raises(InputError, match="superderivation matrix must be square"):
        Superderivation(matrix=matrix, degree=0)


def _datum(**fields) -> ExtensionDatum:
    """An extension datum of g_4_1_s by an even line, with ``fields`` replaced."""
    q = build("g_4_1_s")
    h = LieSuperalgebra(GradedBasis(("Z",), (0,)), {})
    return ExtensionDatum(**{"base": q, "h": h, "psi": (skew_superderivation_space(q, 0)[0],), **fields})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"base": "g_4_1_s"}, "the base of an extension datum needs a quadratic Lie superalgebra, not a str"),
        ({"base": build("g_4_1_s").algebra}, "needs a quadratic Lie superalgebra, not a LieSuperalgebra"),
        ({"h": "h"}, "h must be a LieSuperalgebra, not str"),
        ({"h": build("g_4_1_s")}, "h must be a LieSuperalgebra, not QuadraticLieSuperalgebra"),
        ({"psi": ("x",)}, "psi must be a tuple of Superderivations"),
        ({"psi": 5}, "psi must be a tuple of Superderivations"),
        ({"psi": ((ONE,),)}, "psi must be a tuple of Superderivations"),
        ({"gamma": "gamma"}, "gamma must be a bilinear form on the h basis, or None"),
        ({"gamma": 0}, "gamma must be a bilinear form on the h basis, or None"),
        ({"psi": (Superderivation(((ONE,),), 0),)}, "psi matrices must match the base dimension"),
    ],
    ids=repr,
)
def test_extension_datum_refuses_malformed_fields(fields, message):
    with pytest.raises(InputError, match=message):
        _datum(**fields)


_LIE_READERS = [inner_torus, center, derived_series, is_solvable, diagonal_weights]


@pytest.mark.parametrize("bad", [None, "x", "basis"], ids=repr)
@pytest.mark.parametrize("reader", _LIE_READERS, ids=lambda f: f.__name__)
def test_algebra_readers_refuse_a_non_algebra(reader, bad):
    q = build("g_4_1_s")
    with pytest.raises(InputError, match="expected a Lie superalgebra"):
        reader(q.basis if bad == "basis" else bad)


@pytest.mark.parametrize("bad", [None, "x", "basis", 5], ids=repr)
def test_contract_vector_refuses_a_non_sequence(bad):
    q = build("g_4_1_s")
    with pytest.raises(InputError, match="contraction vector must be a list or tuple"):
        contract_vector(Cochain.unit(q.basis), q.basis if bad == "basis" else bad)
