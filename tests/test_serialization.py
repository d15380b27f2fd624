"""JSON interchange format round-trips and input rejection."""
import contextlib
import io
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import count_validator_passes, dense_gram
from superquad import build, validate_quadratic
from superquad.algebra import GradedBasis, LieSuperalgebra, validate_lie_superalgebra
from superquad.catalog import catalog_keys, get_entry
from superquad.cli import main
from superquad.errors import InputError
from superquad.extensions import Superderivation, one_dim_double_extension, skew_superderivation_space
from superquad.linalg import rat, rat_str
from superquad.quadratic import BilinearForm, QuadraticLieSuperalgebra
from superquad.serialization import (
    _json_text,
    algebra_from_dict,
    algebra_to_dict,
    dumps,
    load,
    loads,
)


def test_a_large_diagonal_form_costs_its_size_not_n_squared():
    # an abelian even algebra on 2,000 letters with B(e_i, e_i) = 1: a
    # dense n x n form would hold 4,000,000 entries (tens of MiB)
    n = 2000
    text = json.dumps({
        "basis": [{"label": f"e{i}", "parity": 0} for i in range(n)],
        "brackets": [],
        "form": [{"left": f"e{i}", "right": f"e{i}", "value": "1"} for i in range(n)],
    })
    tracemalloc.start()
    try:
        q = loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"loads peaked at {peak / 2**20:.1f} MiB"
    assert loads(dumps(q)) == q
    q.require_form()


def test_rational_literals():
    assert rat("3/4") == rat("3/4")
    assert rat_str(rat("-7/2")) == "-7/2"
    assert rat_str(rat("5")) == "5"
    for bad in ("0.5", "1/0", "1/-2", "a", "", "1 / 2", "--3", True, 0.5, None):
        with pytest.raises(InputError):
            rat(bad)


def test_oversized_rational_literal_is_an_input_error():
    # beyond the interpreter's 4300-digit limit for int parsing
    for text in ("1" * 4400, "1/" + "3" * 4400):
        with pytest.raises(InputError):
            rat(text)


@pytest.mark.parametrize(
    "text, value",
    [("+6/8", Fraction(3, 4)), (" 7 ", Fraction(7)), ("0/5", Fraction(0)), ("-0", Fraction(0)),
     ("-12/3", Fraction(-4)), ("007/014", Fraction(1, 2)), ("\t-5\n", Fraction(-5))],
    ids=repr,
)
def test_rational_literal_values(text, value):
    got = rat(text)
    assert got == value == Fraction(text.strip()) and type(got) is Fraction


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/0", "zero denominator: '1/0'"),
        ("-3/000", "zero denominator"),
        ("1.5", "not an exact rational literal: '1.5'"),
        ("1e3", "not an exact rational literal"),
        ("1/+2", "not an exact rational literal"),
        ("9" * 4400, "rational literal of 4400 characters is too long"),
        ("1/" + "9" * 4400, "rational literal of 4402 characters is too long"),
        ("9" * 4400 + "/0", "rational literal of 4402 characters is too long"),
    ],
    ids=lambda x: x if len(x) < 20 else f"{x[:8]}...({len(x)})",
)
def test_rational_literal_errors(text, message):
    with pytest.raises(InputError, match=message):
        rat(text)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("1.5", "not an exact rational literal: '1.5'"),
        ("1/0", "zero denominator: '1/0'"),
        ("", "not an exact rational literal: ''"),
        ("9" * 4400, "rational literal of 4400 characters is too long"),
    ],
    ids=lambda x: x if len(x) < 20 else f"{x[:8]}...({len(x)})",
)
def test_every_literal_refusal_holds_after_valid_literals_are_read(bad, message):
    """A document refuses a bad literal each time, in the same words, next
    to the valid literals it read before and reads again after."""
    doc = algebra_to_dict(build("g_8_2_5_s"))
    assert loads(json.dumps(doc)) == build("g_8_2_5_s")
    doc["brackets"][-1]["terms"][0]["coeff"] = bad
    for _ in range(2):
        with pytest.raises(InputError, match=message):
            loads(json.dumps(doc))
        with pytest.raises(InputError, match=message):
            rat(bad)
    assert rat("-7/2") == Fraction(-7, 2) and type(rat(" 5 ")) is Fraction


def _repeated_literal_document(n: int) -> str:
    """An abelian even algebra on n letters whose n form values and n - 1
    bracket coefficients all read "3/7" (the brackets break no rule the
    loader checks: the validator would refuse them)."""
    return json.dumps({
        "basis": [{"label": f"e{i}", "parity": 0} for i in range(n)],
        "brackets": [{"left": "e0", "right": f"e{i}", "terms": [{"coeff": "3/7", "basis": "e0"}]}
                     for i in range(1, n)],
        "form": [{"left": f"e{i}", "right": f"e{i}", "value": "3/7"} for i in range(n)],
    })


def test_a_literal_is_parsed_once_per_document_and_no_state_outlives_it(monkeypatch):
    import superquad.serialization as serialization

    parsed = []

    def counting_rat(value):
        if isinstance(value, str):
            parsed.append(value)
        return rat(value)

    monkeypatch.setattr(serialization, "rat", counting_rat)
    text = _repeated_literal_document(40)
    first = loads(text)
    assert parsed == ["3/7"]
    assert all(row == {i: Fraction(3, 7)} for i, row in enumerate(first.form.rows))
    assert all(terms == {0: Fraction(3, 7)} for terms in first.algebra.constants.values())
    second = loads(text)  # a second document parses its literal again
    assert parsed == ["3/7", "3/7"] and second == first


@pytest.mark.parametrize(
    "first, then, message",
    [
        (1, True, "not an exact rational: True of type bool"),
        (1, 1.0, "not an exact rational: 1.0 of type float"),
    ],
    ids=repr,
)
def test_a_literal_read_before_does_not_let_an_equal_key_through(first, then, message):
    """1, 1.0 and True are one dict key: a literal the document read before
    must not stand in for a bool or a float read after it."""
    doc = {
        "basis": [{"label": "a", "parity": 0}, {"label": "b", "parity": 0}],
        "brackets": [{"left": "a", "right": "b", "terms": [{"coeff": first, "basis": "a"}]}],
        "form": [{"left": "a", "right": "a", "value": then}, {"left": "b", "right": "b", "value": 1}],
    }
    with pytest.raises(InputError, match=message):
        loads(json.dumps(doc))


@pytest.mark.parametrize("name", [{"a": 1}, 5, ["x"], True, 1.5])
def test_a_name_that_is_not_a_string_is_an_input_error(name):
    doc = algebra_to_dict(build("g_4_1_s"))
    doc["name"] = name
    with pytest.raises(InputError, match=f"'name' must be a string, not {type(name).__name__}"):
        loads(json.dumps(doc))
    doc["name"] = None  # null, like an absent name, is the empty one
    assert loads(json.dumps(doc)).algebra.name == ""


def test_the_emitter_writes_every_catalog_document_as_json_dumps_does():
    for key in catalog_keys():
        doc = algebra_to_dict(build(key))
        assert _json_text(doc) == dumps(build(key)) == json.dumps(doc, indent=2) + "\n", key


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**60), 10**60)
    | st.floats()
    | st.text()
    | st.sampled_from(["", "\u2297", '"\\/\b\f\n\r\t', "\x00\x1f\x7f", "\u2028\U0001d11e"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_the_emitter_writes_what_json_dumps_with_indent_2_writes(doc):
    """Escapes, non-ASCII text, empty lists and dicts, tuples, bools, None,
    big ints and floats: byte for byte."""
    assert _json_text(doc) == json.dumps(doc, indent=2) + "\n"


def test_round_trip_every_catalog_entry():
    for key in catalog_keys():
        obj = build(key)
        text = dumps(obj)
        back = loads(text)
        if get_entry(key).quadratic:
            assert isinstance(back, QuadraticLieSuperalgebra)
            assert back.algebra.constants == obj.algebra.constants
            assert back.form == obj.form and dense_gram(back.form) == dense_gram(obj.form)
            assert validate_quadratic(back).ok
        else:
            assert back.constants == obj.constants
            assert validate_lie_superalgebra(back).ok
        assert back.basis.labels == obj.basis.labels
        assert back.basis.parities == obj.basis.parities


def test_serialization_is_deterministic():
    a = dumps(build("g_8_2_5_s"))
    b = dumps(build("g_8_2_5_s"))
    assert a == b


def test_dict_form_is_plain_json():
    d = algebra_to_dict(build("g_4_1_s"))
    json.dumps(d)  # must not raise
    assert d["basis"][0] == {"label": "X0", "parity": 0}
    assert "form" in d


def test_loads_rejects_malformed_json():
    with pytest.raises(InputError) as err:
        loads("{not json")
    assert "malformed JSON" in str(err.value)


def test_from_dict_rejects_structural_errors():
    base = algebra_to_dict(build("g_4_1_s"))

    wrong_order = json.loads(json.dumps(base))
    wrong_order["basis"] = list(reversed(wrong_order["basis"]))
    with pytest.raises(InputError):
        algebra_from_dict(wrong_order)

    dup = json.loads(json.dumps(base))
    dup["basis"][1] = dict(dup["basis"][0])
    with pytest.raises(InputError):
        algebra_from_dict(dup)

    unknown = json.loads(json.dumps(base))
    unknown["brackets"][0]["left"] = "nope"
    with pytest.raises(InputError):
        algebra_from_dict(unknown)


@pytest.mark.parametrize("brackets", [5, True, "ab", {"left": "X0"}, None])
def test_brackets_must_be_an_array(brackets):
    doc = algebra_to_dict(build("g_4_1_s"))
    doc["brackets"] = brackets
    with pytest.raises(InputError, match="'brackets' must be an array"):
        algebra_from_dict(doc)


def test_absent_brackets_mean_an_abelian_algebra():
    g = algebra_from_dict({"basis": [{"label": "a", "parity": 0}]})
    assert isinstance(g, LieSuperalgebra) and not g.constants


@pytest.mark.parametrize("parity", [True, False, 1.0, 0.0, "1", None, 2])
def test_parity_must_be_the_integer_0_or_1(parity):
    doc = {"basis": [{"label": "a", "parity": parity}], "brackets": []}
    with pytest.raises(InputError, match="parity"):
        algebra_from_dict(doc)


# JSON-like values: nested lists and objects over the document's keys
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.sampled_from(["a", "X0", "1/2", "-1", "0"]),
)
_keys = st.sampled_from(
    ["basis", "brackets", "form", "label", "parity", "left", "right", "terms",
     "coeff", "value", "name"]
) | st.text(max_size=3)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_keys, inner, max_size=3),
    max_leaves=8,
)
_VALID_DOCS = [algebra_to_dict(build("g_4_1_s")), algebra_to_dict(build("h"))]


@st.composite
def _mutated_documents(draw):
    """A valid document with one field, at any depth, replaced by a
    JSON-like value or deleted."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_VALID_DOCS))))
    node = doc
    while node:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        if isinstance(node[key], (dict, list)) and draw(st.booleans()):
            node = node[key]
        elif draw(st.integers(0, 4)):
            node[key] = draw(_scalars | _values)
            break
        else:
            del node[key]
            break
    return doc


@settings(max_examples=300, deadline=None)
@given(_values | _mutated_documents(), st.booleans())
def test_fuzzed_documents_load_or_raise_input_error(tmp_path_factory, doc, via_cli):
    """Every document loads or is an InputError; the CLI exits 0, 1 or 2."""
    text = json.dumps(doc)
    try:
        loads(text)
    except InputError:
        pass
    if via_cli:
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            assert main(["validate", str(path)]) in (0, 1, 2)


def _build_or_input_error(make) -> None:
    try:
        make()
    except InputError:
        pass


def _tuples(value):
    """Lists, at any depth, as tuples, so that a fuzzed value can also
    reach the checks behind the constructors' tuple rule."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


_AB = GradedBasis(labels=("a", "b"), parities=(0, 1))
_indices = st.integers(-1, 2) | _scalars
_terms = st.dictionaries(_indices, _values, max_size=3) | _values


@settings(max_examples=300, deadline=None)
@given(_values, _values, st.booleans())
def test_fuzzed_graded_basis_builds_or_raises_input_error(labels, parities, as_tuples):
    if as_tuples:
        labels, parities = _tuples(labels), _tuples(parities)
    _build_or_input_error(lambda: GradedBasis(labels=labels, parities=parities))


@settings(max_examples=300, deadline=None)
@given(_values | st.tuples(_indices, _indices, _terms))
def test_fuzzed_bracket_rows_build_or_raise_input_error(row):
    _build_or_input_error(lambda: LieSuperalgebra.from_index_table(_AB, [row]))


@settings(max_examples=300, deadline=None)
@given(
    _values | st.lists(st.lists(_scalars, min_size=2, max_size=2), min_size=2, max_size=2),
    _values | st.lists(_terms, min_size=2, max_size=2),
    st.booleans(),
)
def test_fuzzed_gram_and_derivation_matrices_build_or_raise_input_error(matrix, rows, as_tuples):
    if as_tuples:
        matrix, rows = _tuples(matrix), _tuples(rows)
    _build_or_input_error(lambda: BilinearForm(_AB, rows=matrix))
    _build_or_input_error(lambda: BilinearForm(_AB, rows=rows))
    _build_or_input_error(lambda: Superderivation(matrix=matrix, degree=0))


_derivation_entries = st.sampled_from(["0", "1", "-1/2", 0, 1]) | _scalars


@settings(max_examples=100, deadline=None)
@given(
    _values
    | st.lists(
        st.lists(_derivation_entries, min_size=3, max_size=5), min_size=3, max_size=5
    )
)
def test_fuzzed_derivation_documents_exit_0_1_or_2(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "derivation.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        assert main(["double-extend", "g_4_1_s", "--derivation", str(path)]) in (0, 1, 2)


def test_loading_does_not_force_validity():
    """Structurally sound but axiom-violating input loads fine; the
    validator, not the parser, is the arbiter of the axioms."""
    doc = {
        "basis": [
            {"label": "a", "parity": 0},
            {"label": "b", "parity": 0},
            {"label": "c", "parity": 0},
        ],
        "brackets": [
            {"left": "a", "right": "b", "terms": [{"basis": "c", "coeff": "1"}]},
            {"left": "b", "right": "c", "terms": [{"basis": "a", "coeff": "1"}]},
            {"left": "c", "right": "a", "terms": [{"basis": "c", "coeff": "1"}]},
        ],
    }
    g = algebra_from_dict(doc)
    assert not validate_lie_superalgebra(g).ok


def test_each_loaded_document_is_validated_again(tmp_path, monkeypatch, capsys):
    # an extension carries its own check result, but what is loaded from
    # its JSON is a new object: it is checked in full, and a constant moved
    # in the text so that super Jacobi fails is reported through loads and
    # through the validate verb
    q = build("g_8_2_5_s")
    ext = one_dim_double_extension(q, skew_superderivation_space(q, 0)[-1])
    assert validate_quadratic(ext).ok
    calls = count_validator_passes(monkeypatch)["jacobi"]
    back = loads(dumps(ext))
    assert back == ext and validate_quadratic(back).ok and len(calls) == 1
    doc = algebra_to_dict(ext)
    bracket = next(b for b in doc["brackets"] if b["left"] == "e")
    bracket["terms"][0]["coeff"] = "17"
    broken = loads(json.dumps(doc))
    report = validate_quadratic(broken)
    assert len(calls) == 2 and "jacobi" in {v.rule for v in report.violations}
    path = tmp_path / "broken_extension.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert len(calls) == 3 and "violation: jacobi" in out and "INVALID" in out


def test_form_presence_switches_type():
    q = build("g_4_1_s")
    d = algebra_to_dict(q)
    del d["form"]
    g = algebra_from_dict(d)
    assert not isinstance(g, QuadraticLieSuperalgebra)
    assert g.constants == q.algebra.constants


def test_only_an_algebra_is_serialized():
    with pytest.raises(InputError, match="cannot serialize int"):
        dumps(5)


def test_loading_a_missing_path_is_an_input_error(tmp_path):
    path = tmp_path / "missing.json"
    with pytest.raises(InputError, match=f"cannot read {path}: "):
        load(str(path))
