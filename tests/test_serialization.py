"""JSON interchange format round-trips and input rejection."""
import json

import pytest

from superquad import build, validate_quadratic
from superquad.algebra import validate_lie_superalgebra
from superquad.catalog import catalog_keys, get_entry
from superquad.errors import InputError
from superquad.quadratic import QuadraticLieSuperalgebra
from superquad.serialization import (
    algebra_from_dict,
    algebra_to_dict,
    dumps,
    loads,
    rational_from_str,
    rational_to_str,
)


def test_rational_literals():
    assert rational_from_str("3/4") == rational_from_str("3/4")
    assert rational_to_str(rational_from_str("-7/2")) == "-7/2"
    assert rational_to_str(rational_from_str("5")) == "5"
    for bad in ("0.5", "1/0", "1/-2", "a", "", "1 / 2", "--3", True, 0.5, None):
        with pytest.raises(InputError):
            rational_from_str(bad)


def test_oversized_rational_literal_is_an_input_error():
    # beyond the interpreter's 4300-digit limit for int parsing
    for text in ("1" * 4400, "1/" + "3" * 4400):
        with pytest.raises(InputError):
            rational_from_str(text)


def test_round_trip_every_catalog_entry():
    for key in catalog_keys():
        obj = build(key)
        text = dumps(obj)
        back = loads(text)
        if get_entry(key).quadratic:
            assert isinstance(back, QuadraticLieSuperalgebra)
            assert back.algebra.constants == obj.algebra.constants
            assert back.form.gram == obj.form.gram
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


def test_form_presence_switches_type():
    q = build("g_4_1_s")
    d = algebra_to_dict(q)
    del d["form"]
    g = algebra_from_dict(d)
    assert not isinstance(g, QuadraticLieSuperalgebra)
    assert g.constants == q.algebra.constants
