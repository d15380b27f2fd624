#!/usr/bin/env python3
"""Write the engine's printed outputs into one directory, one file each.

Usage:

    PYTHONPATH=src python3 scripts/golden_outputs.py <dir>

Every output comes from ``superquad.cli.main`` (or, for the last file,
from ``scripts/reproduce_tables.py``) run in this process on the
``superquad`` found on ``PYTHONPATH``.  So one copy of this script can
write the outputs of two checkouts; a change that must not alter any
exact output passes ``diff -r`` (byte for byte) between the two
directories:

* ``cohomology <key> --max-degree 3 --format json`` for every catalog
  key, and ``g_8_2_5_s`` also to degrees 4 and 6 (delta_5 has 192
  columns, so the larger eliminations are covered too);
* ``poisson <key> --max-degree 2`` for every quadratic key, and
  ``g_8_2_5_s`` also to degree 3 (111 monomials of the largest
  algebra);
* ``validate <key>`` for every key;
* the standard output of ``scripts/reproduce_tables.py``.

``exit_codes.txt`` lists each command's exit code; a command that
writes to standard error also leaves a ``.err`` file.
"""
from __future__ import annotations

import contextlib
import io
import runpy
import sys
from pathlib import Path

from superquad import catalog_keys, cli, get_entry


def commands() -> list[tuple[str, list[str]]]:
    """(file name, CLI arguments) for every output, in a fixed order."""
    keys = catalog_keys()
    out = [
        (f"cohomology_{k}_{d}.json", ["cohomology", k, "--max-degree", str(d), "--format", "json"])
        for k, d in [(k, 3) for k in keys] + [("g_8_2_5_s", 4), ("g_8_2_5_s", 6)]
    ]
    out += [
        (f"poisson_{k}_{d}.txt", ["poisson", k, "--max-degree", str(d)])
        for k, d in [(k, 2) for k in keys if get_entry(k).quadratic] + [("g_8_2_5_s", 3)]
    ]
    out += [(f"validate_{k}.txt", ["validate", k]) for k in keys]
    return out


def capture(run) -> tuple[object, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        result = run()
    return result, stdout.getvalue(), stderr.getvalue()


def write(target: Path, name: str, stdout: str, stderr: str) -> None:
    (target / name).write_text(stdout, encoding="utf-8")
    if stderr:
        (target / f"{name}.err").write_text(stderr, encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    target = Path(argv[0])
    target.mkdir(parents=True, exist_ok=True)
    codes = []
    for name, args in commands():
        rc, stdout, stderr = capture(lambda: cli.main(args))
        write(target, name, stdout, stderr)
        codes.append(f"{name} {rc}\n")
    script = Path(__file__).resolve().with_name("reproduce_tables.py")
    _, stdout, stderr = capture(lambda: runpy.run_path(str(script), run_name="__main__"))
    write(target, "reproduce_tables.txt", stdout, stderr)
    (target / "exit_codes.txt").write_text("".join(codes), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
