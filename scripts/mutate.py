#!/usr/bin/env python3
"""Run the engine's mutants through the Tier-1 suite: each check must kill one.

Usage:

    python3 scripts/mutate.py [NAME ...]

Each mutant (``MUTANTS``) replaces one piece of text, which must occur
exactly once in its file, in a temporary copy of ``src/``, ``tests/``,
``scripts/`` and ``pyproject.toml``, and runs the Tier-1 suite there with
``-x`` on that copy's ``src/``.  The mutant is killed when the suite
fails; the one test that reads the mutants' own targets
(``SELF_CHECK``) is deselected there, as the copy no longer holds the
text a mutant replaced and it would fail under every mutant.  The
script prints ``killed`` or ``survived`` for each mutant it
runs (all of them, or those named), with the first test that failed,
and exits 1 if any survived.  It exits 2 for an unknown name, a target
that does not occur exactly once, or a suite that fails with no mutant
applied, which it runs first.  The working tree is never changed.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "pyproject.toml")
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")
SELF_CHECK = "tests/test_scripts.py::test_every_mutant_replaces_text_that_occurs_once_in_its_file"
COCHAINS, COHOMOLOGY = "src/superquad/cochains.py", "src/superquad/cohomology.py"
EXTENSIONS, QUADRATIC = "src/superquad/extensions.py", "src/superquad/quadratic.py"
ALGEBRA, SERIALIZATION = "src/superquad/algebra.py", "src/superquad/serialization.py"

# name: (file, the text replaced, its replacement)
MUTANTS = {
    "delta_sign": (COCHAINS, "-c if (m & (1 << t) - 1).bit_count() & 1 else c, t)",
                   "c if (m & (1 << t) - 1).bit_count() & 1 else c, t)"),
    "acyclic_count_sign": (COHOMOLOGY, "(-1) ** (k - 1 - j)", "(-1) ** (k - j)"),
    "torus_weight_check": (COHOMOLOGY, "if {m: c for m, c in got.items() if c} != ({_unit(ne, t): -w[t]} if w[t] else {}):",
                           "if False:"),
    "torus_jacobi_check": (COHOMOLOGY, "        if _delta(g, terms):", "        if False:"),
    "block_key_check": (COHOMOLOGY, "if key is not None and target_keys.get(mm) != key:", "if False:"),
    "poisson_cross_check": (COHOMOLOGY, "if three and image != _poisson(three, ((m, 1),), -1):", "if False:"),
    "rank_nullity_check": (COHOMOLOGY, "if src.dimension != len(cx.image(k, verify).rows) + n_z:", "if False:"),
    "boundaries_in_cocycles_check": (COHOMOLOGY, "if n_b + len(reps) > n_z:", "if False:"),
    "is_coboundary_ignores_rest": (COHOMOLOGY, "remainder(dict(part[0])) and _rest_closed(cx, part, k)",
                                   "remainder(dict(part[0]))"),
    "class_vector_ignores_rest": (COHOMOLOGY, "if not _rest_closed(rcx, part, k) or failed and",
                                  "if failed and"),
    "is_cocycle_ignores_rest": (COHOMOLOGY, "if not all(_rest_closed(cx, part, k) for k, part in kept):",
                                "if False:"),
    "check_size_limit": (COHOMOLOGY, "if k_max >= DEGREE_LIMIT:", "if k_max > DEGREE_LIMIT:"),
    "split_for_another_complex": (COHOMOLOGY, "if held is None or held[0]() is not cx:", "if held is None:"),
    "degrees_all_in_one": (COCHAINS, "out.get(k := _degree_of(ne, m))", "out.get(k := 1)"),
    "join_inner_weight_sign": (COCHAINS, "for o, key in odd.get(-i, ()):", "for o, key in odd.get(i, ()):"),
    "odd_key_without_sym_parity": (COCHAINS, "append((part, w + (k - a) % 2))", "append((part, w))"),
    "table_of_another_size": (COCHAINS, "(even := evens.get(a))", "(even := evens.get(a - 1))"),
    "form_walk_skips_lower_entries": (QUADRATIC, "{(i, j) if i <= j else (j, i) for i, row in enumerate(rows) for j in row}",
                                      "{(i, j) for i, row in enumerate(rows) for j in row if i <= j}"),
    "form_even_rule": (QUADRATIC, "if p[i] != p[j] and gij:", "if False:"),
    "grading_parity_test": (EXTENSIONS, "if p[i] != (p[j] + degree) % 2):", "if p[i] != p[j]):"),
    "direct_vs_general_form_rows": (EXTENSIONS, "        or general.form.rows != direct.form.rows\n", ""),
    "index_table_target_check": (ALGEBRA, "                    if not _is_index(k, n):", "                    if False:"),
    "index_table_keeps_zeros": (ALGEBRA, "if coeff := rat(c):", "if (coeff := rat(c)) or True:"),
    "literal_memo_any_key": (SERIALIZATION, "        if type(x) is str:", "        if True:"),
}


def mutated(root: Path, name: str) -> tuple[Path, str]:
    """The file of mutant ``name`` under root and its mutated text;
    ValueError unless the target occurs exactly once."""
    path, target, replacement = MUTANTS[name]
    text = (root / path).read_text()
    if (count := text.count(target)) != 1:
        raise ValueError(f"{name}: the target occurs {count} times in {path}, not once")
    return root / path, text.replace(target, replacement)


def run(name: str | None) -> str | None:
    """The first test that fails with mutant ``name`` (none for None)
    applied, or None when the Tier-1 suite passes."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        tree = Path(tmp)
        for part in COPIED:
            (shutil.copytree if (ROOT / part).is_dir() else shutil.copy)(ROOT / part, tree / part)
        if name is not None:
            path, text = mutated(tree, name)
            path.write_text(text)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        args = TIER1 if name is None else (*TIER1, "--deselect", SELF_CHECK)
        result = subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True)
        if result.returncode == 0:
            return None
        failed = [line.split(" - ")[0].split()[1] for line in result.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        return failed[0] if failed else f"exit code {result.returncode}"


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    if unknown := [n for n in names if n not in MUTANTS]:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(MUTANTS)}", file=sys.stderr)
        return 2
    try:
        for name in names:
            mutated(ROOT, name)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    if (failed := run(None)) is not None:  # a mutant is killed only by a suite that passes without it
        print(f"the suite fails with no mutant applied: {failed}", file=sys.stderr)
        return 2
    survived = []
    for name in names:
        start = time.perf_counter()
        failed = run(name)
        print(f"{name}: {f'killed by {failed}' if failed else 'survived'} ({time.perf_counter() - start:.1f} s)",
              flush=True)
        if failed is None:
            survived.append(name)
    print(f"{len(names) - len(survived)} of {len(names)} killed" + (f"; survived: {', '.join(survived)}" if survived else ""))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
