"""Command-line interface: exit codes, text output, JSON reports."""
import json

import pytest

from helpers import NON_JACOBI_DOC, QUADRATIC_KEYS, doubled_odd_form
from superquad import validate_quadratic
from superquad import cli
from superquad.cli import main
from superquad.extensions import skew_superderivation_space
from superquad.catalog import build
from superquad.serialization import (
    algebra_to_dict,
    loads,
    rational_to_str,
)

BROKEN_DOC = {
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


def test_list_text(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in ("h", "g_4_1_s", "g_8_2_9_s", "g_dec"):
        assert key in out


def test_list_json(capsys):
    assert main(["list", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["kind"] == "catalog"
    keys = [e["key"] for e in doc["entries"]]
    assert len(keys) == 17 and keys[0] == "h"


def test_validate_catalog_key(capsys):
    assert main(["validate", "g_6_2", "--param", "lam=7/3"]) == 0
    assert "quadratic Lie superalgebra: OK" in capsys.readouterr().out


def test_validate_plain_algebra(capsys):
    assert main(["validate", "h"]) == 0
    out = capsys.readouterr().out
    assert "Lie superalgebra: OK" in out
    assert "quadratic" not in out


def test_validate_broken_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN_DOC))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "violation: jacobi" in out
    assert "INVALID" in out


def test_validate_file_round_trip(tmp_path, capsys):
    path = tmp_path / "alg.json"
    assert main(["export", "g_8_2_5_s", "--output", str(path)]) == 0
    capsys.readouterr()
    assert main(["validate", str(path)]) == 0
    assert "quadratic Lie superalgebra: OK" in capsys.readouterr().out


def test_params_rejected_for_files(tmp_path, capsys):
    path = tmp_path / "alg.json"
    main(["export", "g_4_1_s", "--output", str(path)])
    capsys.readouterr()
    assert main(["validate", str(path), "--param", "lam=1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_betti_text_matches_frozen_table(capsys):
    assert main(["betti", "g_4_2_s", "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines[-3:] == ["b_0 = 1", "b_1 = 1", "b_2 = 0"]


@pytest.mark.parametrize("verb", ["betti", "cohomology"])
def test_cohomology_verbs_reject_non_jacobi_algebra(verb, tmp_path, capsys):
    path = tmp_path / "non_jacobi.json"
    path.write_text(json.dumps(NON_JACOBI_DOC))
    assert main(["validate", str(path)]) == 1
    expected = capsys.readouterr().out
    assert main([verb, str(path)]) == 1
    out = capsys.readouterr().out
    assert out == expected
    assert "violation: jacobi at (a, b, c)" in out
    assert "b_0" not in out


def test_oversized_rational_param_is_an_input_error(capsys):
    assert main(["betti", "g_6_2", "--param", "lam=" + "1" * 4400]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_betti_json(capsys):
    assert main(["betti", "g_4_1_s", "--max-degree", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["kind"] == "betti"
    assert [row["betti"] for row in doc["table"]] == [1, 2, 2]
    assert all("representatives" not in row for row in doc["table"])


def test_cohomology_json_has_representatives(capsys):
    assert main(
        ["cohomology", "g_4_1_s", "--max-degree", "2", "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "cohomology"
    assert doc["table"][2]["representatives"]


def test_poisson_check(capsys):
    assert main(["poisson", "g_4_1_s"]) == 0
    out = capsys.readouterr().out
    assert "{I, I} = 0: OK" in out
    assert "delta == -{I, .}" in out


@pytest.mark.parametrize("key", QUADRATIC_KEYS)
def test_poisson_json_agrees_on_every_quadratic_key(key, capsys):
    assert main(["poisson", key, "--max-degree", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["i_i_zero"] is True
    assert doc["differential_agreements"] is True


def test_poisson_rejects_a_form_that_is_not_invariant(tmp_path, capsys):
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(algebra_to_dict(doubled_odd_form())))
    assert main(["poisson", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: associated 3-form is inconsistent")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_poisson_needs_quadratic(capsys):
    assert main(["poisson", "h"]) == 2
    assert "error:" in capsys.readouterr().err


def test_poisson_rejects_a_negative_degree(capsys):
    assert main(["poisson", "g_4_1_s", "--max-degree", "-1"]) == 2
    assert "k_max must be non-negative" in capsys.readouterr().err


def test_poisson_checks_the_size_first(tmp_path, capsys, monkeypatch):
    # 30 odd generators, zero bracket, a symplectic form: dim C^6 = C(35, 6)
    labels = [f"u{i}" for i in range(30)]
    doc = {
        "basis": [{"label": lab, "parity": 1} for lab in labels],
        "brackets": [],
        "form": [
            {"left": labels[i], "right": labels[i + 1], "value": "1"}
            for i in range(0, 30, 2)
        ],
    }
    path = tmp_path / "odd30.json"
    path.write_text(json.dumps(doc))

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "darboux_frame", no_work)
    monkeypatch.setattr(cli, "monomials_of_degree", no_work)
    assert main(["poisson", str(path), "--max-degree", "5"]) == 2
    assert "exceeds the monomial limit" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["validate", "betti"])
def test_non_array_brackets_are_an_input_error(verb, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(BROKEN_DOC, brackets=5)))
    assert main([verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'brackets' must be an array")
    assert "Traceback" not in err


def test_export_round_trip(capsys):
    assert main(["export", "g_6_3"]) == 0
    out = capsys.readouterr().out
    back = loads(out)
    assert validate_quadratic(back).ok
    assert back.basis.labels == build("g_6_3").basis.labels


def test_double_extend_valid(tmp_path, capsys):
    q = build("g_4_1_s")
    d = skew_superderivation_space(q, 0)[0]
    path = tmp_path / "deriv.json"
    path.write_text(
        json.dumps([[rational_to_str(x) for x in row] for row in d.matrix])
    )
    code = main(
        ["double-extend", "g_4_1_s", "--derivation", str(path), "--labels", "e,f"]
    )
    assert code == 0
    out = loads(capsys.readouterr().out)
    assert validate_quadratic(out).ok
    assert out.dim == q.dim + 2
    assert "e" in out.basis.labels and "f" in out.basis.labels


def test_double_extend_rejects_non_skew(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
    assert main(["double-extend", "g_4_1_s", "--derivation", str(path)]) == 1
    out = capsys.readouterr().out
    assert "INVALID derivation" in out


def test_unknown_key_is_a_usage_error(capsys):
    assert main(["validate", "does_not_exist"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_verb_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_output_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["export", "g_8_2_2_s", "--output", str(a)])
    main(["export", "g_8_2_2_s", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()
