"""Regenerate ``reference.json``, the exact answers the benchmark checks.

Run from the repository root:  python3 perfbench/make_reference.py

It computes, at default catalog parameters, the table
(dim C^k, dim Z^k, dim B^k, b_k) of every catalog key for k <= 4 (with
the default -{I,.} cross-check), of ``g_8_2_5_s`` for k <= 5, and the
dimensions of the degree-0 and degree-1 skew superderivation spaces of
every quadratic key.  Before writing, it checks the tables against the
values the test suite pins (acceptance criteria C1, C2, C4 and the CLI
Betti tests), the Heisenberg closed form, and rank-nullity
(dim B^k = dim C^{k-1} - dim Z^{k-1}).  It takes about a minute.
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import superquad as sq  # noqa: E402

from workloads import HEISENBERG_POINTS, heisenberg_b2, table_rows  # noqa: E402

CATALOG_DEGREE = 4
DEEP_KEY, DEEP_DEGREE = "g_8_2_5_s", 5

# values pinned by the test suite
PINNED_BETTI = {"g_4_1_s": [1, 2, 2], "g_4_2_s": [1, 1, 0], "g_6_s": [None, None, 6]}
PINNED_B2_Z2 = {"g_4_1_s": (2, 4), "g_4_2_s": (3, 3), "g_6_s": (3, 9)}


def _check(tables: dict) -> None:
    for key, want in PINNED_BETTI.items():
        got = [row[3] for row in tables[key][: len(want)]]
        if any(w is not None and g != w for g, w in zip(got, want)):
            raise SystemExit(f"{key}: Betti numbers {got} disagree with the tests ({want})")
    for key, (b2, z2) in PINNED_B2_Z2.items():
        row = tables[key][2]
        if (row[2], row[1]) != (b2, z2):
            raise SystemExit(f"{key}: (dim B^2, dim Z^2) = {(row[2], row[1])}, tests pin {(b2, z2)}")
    for n, m in HEISENBERG_POINTS:
        b2 = sq.cohomology(sq.build("h", {"n": n, "m": m}), 2).betti
        if b2 != heisenberg_b2(n, m):
            raise SystemExit(f"h({n}, {m}): b_2 = {b2}, closed form {heisenberg_b2(n, m)}")
    for key, rows in tables.items():
        for k, (dim_c, dim_z, dim_b, b) in enumerate(rows):
            prev_b = rows[k - 1][0] - rows[k - 1][1] if k else 0
            if dim_b != prev_b or b != dim_z - dim_b:
                raise SystemExit(f"{key} degree {k}: rank-nullity fails in {rows}")


def _dump(doc: dict) -> str:
    """JSON with each innermost list of integers on one line."""
    text = json.dumps(doc, indent=1)
    return re.sub(r"\[\s+([-\d,\s]+?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)


def main() -> int:
    tables = {}
    skew_dims = {}
    for key in sq.catalog_keys():
        q = sq.build(key)
        tables[key] = table_rows(sq.betti_table(q, CATALOG_DEGREE))
        if sq.get_entry(key).quadratic:
            skew_dims[key] = [
                len(sq.skew_superderivation_space(q, 0)),
                len(sq.skew_superderivation_space(q, 1)),
            ]
        print(key, tables[key], file=sys.stderr)
    deep = table_rows(sq.betti_table(sq.build(DEEP_KEY), DEEP_DEGREE, verify=False))
    if deep[: CATALOG_DEGREE + 1] != tables[DEEP_KEY]:
        raise SystemExit(f"{DEEP_KEY}: verify=False table disagrees with the cross-checked one")
    tables[DEEP_KEY] = deep
    _check(tables)
    doc = {
        "about": "rows are [dim C^k, dim Z^k, dim B^k, b_k] for k = 0, 1, ...; "
        "skew_dims are [dim, dim] of the degree-0 and degree-1 skew superderivation spaces; "
        "default catalog parameters; written by perfbench/make_reference.py",
        "tables": tables,
        "skew_dims": skew_dims,
    }
    (HERE / "reference.json").write_text(_dump(doc) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
