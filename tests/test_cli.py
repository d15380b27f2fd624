"""Command-line interface: exit codes, text output, JSON reports."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import NON_JACOBI_DOC, QUADRATIC_KEYS, doubled_odd_form, validate_form_by_union_walk
import superquad
from superquad import validate_quadratic
from superquad import cli
from superquad.cli import main
from superquad.extensions import skew_superderivation_space
from superquad.catalog import build
from superquad.errors import EngineError, InputError
from superquad.linalg import rat_str
from superquad.quadratic import validate_form
from superquad.serialization import (
    algebra_to_dict,
    loads,
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


# even a, b and odd u, v; the bracket breaks super Jacobi and the form
# B(a, b) = B(u, v) = 1 is not invariant for it
JACOBI_AND_INVARIANCE_DOC = {
    "basis": [
        {"label": "a", "parity": 0},
        {"label": "b", "parity": 0},
        {"label": "u", "parity": 1},
        {"label": "v", "parity": 1},
    ],
    "brackets": [
        {"left": "a", "right": "u", "terms": [{"basis": "u", "coeff": "1"}]},
        {"left": "u", "right": "u", "terms": [{"basis": "b", "coeff": "1/2"}]},
        {"left": "u", "right": "v", "terms": [{"basis": "a", "coeff": "1"}]},
    ],
    "form": [
        {"left": "a", "right": "b", "value": "1"},
        {"left": "u", "right": "v", "value": "1"},
    ],
}

JACOBI_AND_INVARIANCE_VIOLATIONS = [
    ("jacobi", ["a", "u", "u"], "super Jacobi fails on (a, u, u): residual 1*b"),
    ("jacobi", ["a", "u", "v"], "super Jacobi fails on (a, u, v): residual 1*a"),
    ("jacobi", ["u", "u", "v"], "super Jacobi fails on (u, u, v): residual -2*u"),
    ("invariance", ["a", "u", "u"], "B([a, u], u) = 0 but B(a, [u, u]) = 1/2"),
    ("invariance", ["a", "u", "v"], "B([a, u], v) = 1 but B(a, [u, v]) = 0"),
    ("invariance", ["b", "u", "v"], "B([b, u], v) = 0 but B(b, [u, v]) = 1"),
    ("invariance", ["b", "v", "u"], "B([b, v], u) = 0 but B(b, [v, u]) = 1"),
    ("invariance", ["u", "a", "v"], "B([u, a], v) = -1 but B(u, [a, v]) = 0"),
    ("invariance", ["u", "u", "a"], "B([u, u], a) = 1/2 but B(u, [u, a]) = 0"),
    ("invariance", ["u", "v", "b"], "B([u, v], b) = 1 but B(u, [v, b]) = 0"),
    ("invariance", ["v", "a", "u"], "B([v, a], u) = 0 but B(v, [a, u]) = -1"),
    ("invariance", ["v", "u", "a"], "B([v, u], a) = 0 but B(v, [u, a]) = 1"),
    ("invariance", ["v", "u", "b"], "B([v, u], b) = 1 but B(v, [u, b]) = 0"),
]


def test_validate_prints_every_violation_in_order(tmp_path, capsys):
    path = tmp_path / "broken_quadratic.json"
    path.write_text(json.dumps(JACOBI_AND_INVARIANCE_DOC))
    assert main(["validate", str(path)]) == 1
    expected_text = "".join(
        f"violation: {rule} at ({', '.join(witness)}): {message}\n"
        for rule, witness, message in JACOBI_AND_INVARIANCE_VIOLATIONS
    )
    assert capsys.readouterr().out == expected_text + "INVALID: 13 violation(s)\n"
    assert main(["validate", str(path), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["quadratic"] is True
    assert [
        (v["rule"], v["witness"], v["message"]) for v in doc["violations"]
    ] == JACOBI_AND_INVARIANCE_VIOLATIONS


def test_the_form_check_reports_what_the_union_walk_reports():
    """The invalid quadratic documents of this file, and the doubled odd
    form: same invariance violations as the walk over the sorted union of
    triples, same order and messages."""
    broken = loads(json.dumps(JACOBI_AND_INVARIANCE_DOC))
    for q in (broken, doubled_odd_form()):
        want = validate_form_by_union_walk(q.algebra, q.form)
        assert want and validate_form(q.algebra, q.form) == want
    invariance = [v for v in JACOBI_AND_INVARIANCE_VIOLATIONS if v[0] == "invariance"]
    assert [(v.rule, list(v.witness), v.message) for v in validate_form(broken.algebra, broken.form)] == invariance


def test_float_form_value_is_an_input_error(tmp_path, capsys):
    doc = json.loads(json.dumps(JACOBI_AND_INVARIANCE_DOC))
    doc["form"][0]["value"] = 1.0
    path = tmp_path / "float_form.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


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


def test_poisson_prepares_the_three_form_as_a_left_operand_once(monkeypatch, capsys):
    # the algebra builds I and its side of {I, .} from the cochains module,
    # once, and keeps them
    calls = []
    module = importlib.import_module("superquad.cochains")
    for name in ("associated_three_form", "_poisson_left"):

        def counted(*args, _name=name, _original=getattr(module, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    assert main(["poisson", "g_6_s"]) == 0
    assert "{I, I} = 0: OK" in capsys.readouterr().out
    assert calls == ["associated_three_form", "_poisson_left"]


def test_poisson_rejects_a_form_that_is_not_invariant(tmp_path, capsys):
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(algebra_to_dict(doubled_odd_form())))
    assert main(["poisson", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: quadratic algebra invalid: invariance at")
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

    # the verb reads I from the algebra, which builds it in the cochains
    # module, and enumerates the monomials itself
    cochains, cli = (importlib.import_module(f"superquad.{m}") for m in ("cochains", "cli"))
    monkeypatch.setattr(cochains, "associated_three_form", no_work)
    monkeypatch.setattr(cli, "cochain_basis", no_work)
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
        json.dumps([[rat_str(x) for x in row] for row in d.matrix])
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


def test_double_extend_validates_its_base(tmp_path, capsys):
    base = tmp_path / "doubled.json"
    base.write_text(json.dumps(algebra_to_dict(doubled_odd_form())))
    assert main(["validate", str(base)]) == 1
    expected = capsys.readouterr().out
    deriv = tmp_path / "zero.json"
    deriv.write_text(json.dumps([[0] * 4 for _ in range(4)]))
    assert main(["double-extend", str(base), "--derivation", str(deriv)]) == 1
    out, err = capsys.readouterr()
    assert out == expected and err == ""
    assert "violation: invariance at" in out
    assert out.endswith(" violation(s)\n") and "INVALID: " in out


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"rows": []}, "superderivation matrix must be square"),
        ([[0] * 4] * 3 + [[0] * 3], "superderivation matrix must be square"),
        ([[0] * 4] * 3 + [0], "superderivation matrix must be square"),
        ([[True, 0, 0, 0]] + [[0] * 4] * 3, "not an exact rational: True"),
        ([[0.5, 0, 0, 0]] + [[0] * 4] * 3, "not an exact rational: 0.5"),
        ([[0] * 3] * 3, "derivation matrix is 3x3, but the algebra has dimension 4"),
    ],
    ids=["not-a-list", "ragged", "int-row", "true", "float", "wrong-size"],
)
def test_bad_derivation_files_are_input_errors(tmp_path, capsys, doc, message):
    path = tmp_path / "deriv.json"
    path.write_text(json.dumps(doc))
    assert main(["double-extend", "g_4_1_s", "--derivation", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err


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


def test_repeated_main_calls_do_not_accumulate(capsys):
    # one parser serves every call; --param is an append action, so a list
    # carried over from an earlier call would change the algebra built
    calls = [
        ["export", "g_8_2_1_s", "--param", "lam=2", "--param", "mu=1/2"],
        ["export", "g_8_2_1_s", "--param", "nu=3"],
        ["export", "g_8_2_1_s"],
        ["validate", "g_8_2_1_s", "--param", "lam=0"],  # (lam, mu, nu) = 0: exit 2
        ["betti", "g_6_2", "--param", "lam=1/3", "--max-degree", "1"],
    ]

    def single_call(argv):
        """What main does, with a parser of its own."""
        args = cli._build_parser().parse_args(argv)
        try:
            return args.func(args)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    def outcomes(run):
        out = []
        for argv in calls:
            rc = run(argv)
            out.append((rc, *capsys.readouterr()))
        return out

    single = outcomes(single_call)
    assert [rc for rc, _, _ in single] == [0, 0, 0, 2, 0]
    assert len({text for _, text, _ in single[:3]}) == 3
    assert outcomes(main) + outcomes(main) == single + single


def test_an_engine_error_is_one_internal_error_line_and_exit_3(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise EngineError("rank-nullity violated in cohomology assembly")

    monkeypatch.setattr(cli, "cohomology_report", failing)
    assert main(["betti", "g_4_1_s"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: rank-nullity violated in cohomology assembly\n"
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "param, message",
    [
        ("lam", "bad --param 'lam': expected name=p/q"),
        ("=2", "bad --param '=2': empty name"),
        (" =2", "bad --param ' =2': empty name"),
    ],
)
def test_a_param_needs_a_name_and_an_equals_sign(param, message, capsys):
    assert main(["validate", "g_6_2", "--param", param]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _zero_derivation(tmp_path, n: int = 4) -> str:
    path = tmp_path / "zero.json"
    path.write_text(json.dumps([[0] * n for _ in range(n)]))
    return str(path)


@pytest.mark.parametrize("text, message", [(None, "cannot read"), ("[[0, 0", "malformed JSON in")])
def test_an_unreadable_derivation_file_is_an_input_error(tmp_path, capsys, text, message):
    path = tmp_path / "deriv.json"
    if text is not None:
        path.write_text(text)
    assert main(["double-extend", "g_4_1_s", "--derivation", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message} {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("verb", ["betti", "export", "double-extend"])
def test_an_unwritable_output_is_an_input_error(tmp_path, capsys, verb):
    path = tmp_path / "missing" / "out.txt"
    argv = [verb, "g_4_1_s", "--output", str(path)]
    if verb == "double-extend":
        argv += ["--derivation", _zero_derivation(tmp_path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert not path.parent.exists()


def test_double_extend_needs_a_quadratic_base(tmp_path, capsys):
    assert main(["double-extend", "h", "--derivation", _zero_derivation(tmp_path, 3)]) == 2
    assert capsys.readouterr() == ("", "error: double-extend needs a quadratic base algebra\n")


@pytest.mark.parametrize("labels", ["e", "e,f,g", "e,", " ,f"])
def test_double_extend_needs_two_labels(tmp_path, capsys, labels):
    argv = ["double-extend", "g_4_1_s", "--derivation", _zero_derivation(tmp_path), "--labels", labels]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: --labels must be two comma-separated names\n")


COHOMOLOGY_G_4_1_S = """\
k  dim C^k  dim Z^k  dim B^k  b_k
0  1        1        0        1
1  4        2        0        2
2  8        4        2        2
degree 0 representatives:
  1 * 1
degree 1 representatives:
  1 * s(2)
  1 * e(2)
degree 2 representatives:
  1 * s(1 2)  +  -2 * e(1^2)
  1 * e(2) \u2297 s(1)
b_0 = 1
b_1 = 2
b_2 = 2
"""


def test_cohomology_text_lists_the_representatives_of_each_degree(capsys):
    assert main(["cohomology", "g_4_1_s", "--max-degree", "2"]) == 0
    assert capsys.readouterr() == (COHOMOLOGY_G_4_1_S, "")


@pytest.mark.parametrize("key, quadratic, name", [("g_4_1_s", True, "g_4_1_s"), ("h", False, "h_3,0")])
def test_validate_json_names_the_algebra(key, quadratic, name, capsys):
    assert main(["validate", key, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "schema": 1, "kind": "validation", "quadratic": quadratic, "ok": True, "violations": [], "name": name,
    }


def test_validate_json_of_an_unnamed_document_has_no_name(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN_DOC))
    assert main(["validate", str(path), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert not doc["ok"] and "name" not in doc


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """``python -m superquad.cli`` with ``args``, in a process of its own."""
    src = str(Path(superquad.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "superquad.cli", *args],
        capture_output=True, text=True, encoding="utf-8", timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


def test_the_module_entry_point_exits_with_the_code_of_main(capsys):
    argv = ["betti", "g_4_1_s", "--max-degree", "2"]
    run = _run_module(*argv)
    assert main(argv) == 0
    assert (run.returncode, run.stdout, run.stderr) == (0, capsys.readouterr().out, "")
    bad = _run_module("betti", "nope")
    assert (bad.returncode, bad.stdout) == (2, "")
    [line] = bad.stderr.splitlines()
    assert line.startswith("error: unknown catalog key 'nope'") and "Traceback" not in bad.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["list", "--format", "json"],
        ["validate", "g_8_2_5_s", "--format", "json"],
        ["validate", "{broken}", "--format", "json"],
        ["betti", "g_6_s", "--format", "json"],
        ["cohomology", "g_4_1_s", "--format", "json"],
        ["poisson", "g_4_1_s", "--format", "json"],
        ["export", "g_dec"],
        ["double-extend", "g_4_1_s", "--derivation", "{deriv}"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_every_json_report_is_what_json_dumps_with_indent_2_writes(argv, tmp_path, capsys):
    """Each verb's JSON goes through one emitter; it writes the bytes that
    ``json.dumps(doc, indent=2)`` does, the \u2297 of a cochain and an
    invalid document's violations included."""
    broken, deriv = tmp_path / "broken_quadratic.json", tmp_path / "deriv.json"
    broken.write_text(json.dumps(JACOBI_AND_INVARIANCE_DOC))
    d = skew_superderivation_space(build("g_4_1_s"), 0)[0]
    deriv.write_text(json.dumps([[rat_str(x) for x in row] for row in d.matrix]))
    main([a.format(broken=broken, deriv=deriv) for a in argv])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert ("\\u2297" in out) == (argv[0] in ("poisson", "cohomology"))


@pytest.mark.parametrize("content", ["[" * 100000, '{"basis": ' + "[" * 100000, b"\xff\xfe[]"], ids=["list", "object", "bytes"])
@pytest.mark.parametrize("verb", ["validate", "double-extend"])
def test_an_unreadable_json_file_is_one_error_line_and_exit_2(tmp_path, content, verb):
    """Nested past the decoder's depth, or not UTF-8: an input error, never
    a traceback (whose exit code 1 would read as a validation failure)."""
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    argv = ["validate", str(path)] if verb == "validate" else ["double-extend", "g_4_1_s", "--derivation", str(path)]
    run = _run_module(*argv)
    assert (run.returncode, run.stdout) == (2, "")
    [line] = run.stderr.splitlines()
    where = "" if verb == "validate" else f" in {path}"
    if isinstance(content, bytes):
        assert line.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
    else:
        assert line == f"error: malformed JSON{where}: nested too deeply to read"
