"""The scripts under ``scripts/``, run in-process."""
import hashlib
import runpy
from pathlib import Path

import pytest

from superquad import catalog_keys, load

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().with_name("golden.sha256")


def test_reproduce_tables_runs_and_reports_no_mismatch(capsys):
    runpy.run_path(str(SCRIPTS / "reproduce_tables.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert out.count("  OK") == 4  # the four Heisenberg b_2 values
    assert "== Poisson bracket table for g_4_1_s ==" in out and "{I, I} = 0" in out


@pytest.fixture
def export_main():
    return runpy.run_path(str(SCRIPTS / "export_catalog.py"))["main"]


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_export_catalog_prints_its_usage_and_writes_nothing(export_main, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert export_main(["export_catalog.py", flag]) == 0
    assert "Usage: python scripts/export_catalog.py [OUTPUT_DIR]" in capsys.readouterr().out
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [["-o"], ["--out", "dir"], ["-1"], ["a", "b"]])
def test_export_catalog_refuses_an_option_or_a_second_argument(export_main, args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert export_main(["export_catalog.py", *args]) == 2
    assert "usage: python scripts/export_catalog.py [OUTPUT_DIR]" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_export_catalog_writes_every_entry(export_main, tmp_path, capsys):
    out = tmp_path / "out"
    assert export_main(["export_catalog.py", str(out)]) == 0
    assert sorted(p.stem for p in out.iterdir()) == sorted(catalog_keys())
    assert load(str(out / "g_4_1_s.json")).basis.labels == ("X0", "Y0", "X1", "Y1")


def test_golden_outputs_match_the_manifest(tmp_path, capsys):
    """The golden set, written in-process, is byte for byte the set that
    ``tests/golden.sha256`` records: the same file names, the same hashes."""
    main = runpy.run_path(str(SCRIPTS / "golden_outputs.py"))["main"]
    assert main([str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    want = {name: digest for digest, name in (line.split("  ", 1) for line in GOLDEN.read_text().splitlines())}
    assert sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name)) == []


def test_every_mutant_replaces_text_that_occurs_once_in_its_file(capsys):
    mutate = runpy.run_path(str(SCRIPTS / "mutate.py"))
    for name in mutate["MUTANTS"]:
        path, text = mutate["mutated"](SCRIPTS.parent, name)
        assert text != path.read_text(), name
    assert mutate["main"](["no_such_mutant"]) == 2
    assert "unknown mutant(s): no_such_mutant" in capsys.readouterr().err
