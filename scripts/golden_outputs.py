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
  key, and ``g_8_2_5_s`` also to degrees 4 and 6 (C^5 has 192
  monomials, so the larger complexes are covered too);
* ``poisson <key> --max-degree 2`` for every quadratic key, and
  ``g_8_2_5_s`` also to degree 3 (111 monomials of the largest
  algebra);
* ``validate <key>`` for every key;
* ``export <key>`` for every key;
* ``double-extend <key> --derivation deriv_<key>.json`` for every
  quadratic key, the derivation being a fixed integer combination of
  the key's degree-0 skew superderivation basis, written into the
  output directory too;
* ``double-extend <key> --derivation deriv_bad_<key>.json`` for every
  quadratic key, the same derivation with one seeded entry moved, so
  the printed violations of the superderivation check are compared;
* ``validate`` (text and JSON) on four invalid documents, also written
  there: a bracket coefficient scaled by 3/2 (``g_8_2_5_s``, super
  Jacobi fails), a Gram value moved by 1/2 (``g_6_s``, invariance
  fails), both (``g_6_3``), and a form pairing the first even with the
  first odd vector (``g_4_1_s``, not even), so violation messages with
  their printed residuals are compared too; ``double-extend`` on the
  moved Gram value (``g_6_s``'s derivation), so an invalid base is
  compared too; and ``poisson`` on the moved Gram value and on the odd
  pairing, so the error text of the form check is compared too;
* ``queries.txt``: for every catalog key and degrees 1 to 3, a fixed
  seeded set of cochains (sums of representatives, a coboundary and,
  for a third of them, a random monomial), each with its
  ``is_cocycle``, ``is_coboundary`` and ``class_vector(..., result=...)``
  verdicts, so the query path, which no CLI verb reaches, is compared
  too;
* the standard output of ``scripts/reproduce_tables.py``.

``exit_codes.txt`` lists each command's exit code; a command that
writes to standard error also leaves a ``.err`` file.  A command that
raises is recorded as the interpreter would end it: its traceback in
the ``.err`` file and exit code 1.

``tests/golden.sha256`` holds one ``sha256  name`` line per file of the
set, and ``tests/test_scripts.py`` writes the set into a temporary
directory and compares it with that manifest.  When a change to an
output is deliberate, refresh the manifest from the repository root:

    PYTHONPATH=src python3 scripts/golden_outputs.py golden
    (cd golden && LC_ALL=C sha256sum -- *) > tests/golden.sha256
    rm -r golden
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import runpy
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from superquad import (
    Cochain,
    InputError,
    algebra_to_dict,
    build,
    catalog_keys,
    class_vector,
    cli,
    cohomology,
    differential_direct,
    get_entry,
    is_coboundary,
    is_cocycle,
    monomials_of_degree,
    rat_str,
    skew_superderivation_space,
)

COEFFS = (1, -2, 3, -1, 2)  # derivation = sum_t COEFFS[t % 5] * (skew basis)_t
# (name, catalog key, scale a bracket coefficient, move a Gram value,
# pair the first even with the first odd vector)
BROKEN = (
    ("non_jacobi", "g_8_2_5_s", True, False, False),
    ("perturbed_gram", "g_6_s", False, True, False),
    ("both", "g_6_3", True, True, False),
    ("not_even", "g_4_1_s", False, False, True),
)


def derivation(key: str) -> list[list[str]]:
    """The fixed integer combination of the degree-0 skew superderivation
    basis of ``key``, as a matrix of rational strings."""
    q = build(key)
    basis = skew_superderivation_space(q, 0)
    n = q.basis.dim
    return [
        [
            rat_str(sum((COEFFS[t % 5] * d.matrix[i][j] for t, d in enumerate(basis)), Fraction(0)))
            for j in range(n)
        ]
        for i in range(n)
    ]


def bad_derivation(key: str, matrix: list[list[str]]) -> list[list[str]]:
    """``matrix`` with one seeded entry moved."""
    rng = random.Random(f"bad derivation {key}")
    n = len(matrix)
    i, j = rng.randrange(n), rng.randrange(n)
    out = [list(row) for row in matrix]
    out[i][j] = _scaled(out[i][j], Fraction(1), Fraction(rng.choice((-2, -1, 1, 3))))
    return out


def _scaled(value: str, factor: Fraction, shift: Fraction = Fraction(0)) -> str:
    return rat_str(Fraction(value) * factor + shift)


def invalid_documents() -> dict[str, dict]:
    """Catalog documents broken on purpose: a bracket coefficient scaled by
    3/2, a Gram value moved by 1/2, both, or a form entry B(even, odd) = 1."""
    out = {}
    for name, key, bracket, form, odd_pair in BROKEN:
        doc = algebra_to_dict(build(key))
        if bracket:
            term = doc["brackets"][-1]["terms"][0]
            term["coeff"] = _scaled(term["coeff"], Fraction(3, 2))
        if form:
            entry = doc["form"][0]
            entry["value"] = _scaled(entry["value"], Fraction(1), Fraction(1, 2))
        if odd_pair:
            even, odd = (next(b["label"] for b in doc["basis"] if b["parity"] == p) for p in (0, 1))
            doc["form"].append({"left": even, "right": odd, "value": "1"})
        out[name] = doc
    return out


QUERY_DEGREES = (1, 2, 3)
QUERIES_PER_DEGREE = 6


def queries() -> str:
    """One line per query: key, degree, the cochain c, and the verdicts of
    is_cocycle, is_coboundary and class_vector (InputError for a non-cocycle)."""
    lines = []
    for key in catalog_keys():
        q = build(key)
        g = getattr(q, "algebra", q)
        rng = random.Random(f"queries {key}")
        for k in QUERY_DEGREES:
            res = cohomology(q, k, verify=False)
            lower, same = monomials_of_degree(g.basis, k - 1), monomials_of_degree(g.basis, k)
            for i in range(QUERIES_PER_DEGREE):
                b = {
                    m: Fraction(rng.choice(COEFFS), rng.choice((1, 2)))
                    for m in rng.sample(lower, min(2, len(lower)))
                }
                c = differential_direct(g, Cochain.from_terms(g.basis, b))
                if i % 2:  # a nonzero class, most of the time
                    for rep in res.representatives:
                        c = c + rep.scale(Fraction(rng.choice(COEFFS)))
                if i % 3 == 2:
                    c = c + Cochain.from_terms(g.basis, {rng.choice(same): Fraction(1)})
                try:
                    vector = " ".join(rat_str(x) for x in class_vector(q, c, result=res))
                except InputError as exc:
                    vector = f"InputError: {exc}"
                lines.append(
                    f"{key} {k} {i} [{c}] cocycle={is_cocycle(q, c)} "
                    f"coboundary={is_coboundary(q, c)} class=[{vector}]\n"
                )
    return "".join(lines)


def inputs(target: Path) -> None:
    """Write the derivation matrices and invalid documents the commands read."""
    for key in catalog_keys():
        if get_entry(key).quadratic:
            matrix = derivation(key)
            (target / f"deriv_{key}.json").write_text(json.dumps(matrix) + "\n", encoding="utf-8")
            bad = json.dumps(bad_derivation(key, matrix)) + "\n"
            (target / f"deriv_bad_{key}.json").write_text(bad, encoding="utf-8")
    for name, doc in invalid_documents().items():
        (target / f"invalid_{name}.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def commands(target: Path) -> list[tuple[str, list[str]]]:
    """(file name, CLI arguments) for every output, in a fixed order; the
    inputs ``inputs(target)`` writes are read from ``target``."""
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
    out += [(f"export_{k}.json", ["export", k]) for k in keys]
    for k in keys:
        if get_entry(k).quadratic:
            out += [
                (f"double_extend_{k}.json", ["double-extend", k, "--derivation", str(target / f"deriv_{k}.json")]),
                (f"double_extend_bad_{k}.txt", ["double-extend", k, "--derivation", str(target / f"deriv_bad_{k}.json")]),
            ]
    for name, *_ in BROKEN:
        path = str(target / f"invalid_{name}.json")
        out += [
            (f"validate_invalid_{name}.txt", ["validate", path]),
            (f"validate_invalid_{name}.json", ["validate", path, "--format", "json"]),
        ]
    base = str(target / "invalid_perturbed_gram.json")
    out.append(
        ("double_extend_invalid_perturbed_gram.txt", ["double-extend", base, "--derivation", str(target / "deriv_g_6_s.json")])
    )
    for name in ("perturbed_gram", "not_even"):
        out.append((f"poisson_invalid_{name}.txt", ["poisson", str(target / f"invalid_{name}.json")]))
    return out


def capture(run) -> tuple[object, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            result = run()
        except Exception:
            traceback.print_exc()
            result = 1
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
    inputs(target)
    codes = []
    for name, args in commands(target):
        rc, stdout, stderr = capture(lambda: cli.main(args))
        write(target, name, stdout, stderr)
        codes.append(f"{name} {rc}\n")
    script = Path(__file__).resolve().with_name("reproduce_tables.py")
    _, stdout, stderr = capture(lambda: runpy.run_path(str(script), run_name="__main__"))
    write(target, "reproduce_tables.txt", stdout, stderr)
    (target / "queries.txt").write_text(queries(), encoding="utf-8")
    (target / "exit_codes.txt").write_text("".join(codes), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
