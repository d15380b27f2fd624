#!/usr/bin/env python3
"""Recompute the headline results from the structure constants.

Prints, in order:
  1. Betti tables (degrees 0..2) for the three small quadratic algebras
     with odd part, with the intermediate cocycle/coboundary dimensions.
  2. Degree-2 representatives for the algebras with nonzero H^2.
  3. The Heisenberg b_2 values against the closed formula.
  4. The Poisson bracket table of the 4-dimensional algebra g_4_1_s with
     respect to its associated 3-form, for every monomial of degree <= 2.
"""
from __future__ import annotations

from fractions import Fraction

from superquad import Cochain, betti_table, build, cochain_basis, cohomology, poisson_bracket


def betti_section() -> None:
    print("== Betti tables ==")
    for key in ("g_4_1_s", "g_4_2_s", "g_6_s"):
        q = build(key)
        rows = betti_table(q, 2)
        cells = ", ".join(f"b_{r.degree}={r.betti}" for r in rows)
        r2 = rows[2]
        print(
            f"{key}: {cells}   "
            f"(deg 2: dim Z = {r2.dim_cocycles}, dim B = {r2.dim_coboundaries})"
        )
        if r2.betti:
            print(f"  H^2 representatives:")
            for rep in r2.representatives:
                print(f"    {rep}")
    print()


def heisenberg_section() -> None:
    print("== Heisenberg b_2 against the closed formula ==")
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        g = build("h", {"n": n, "m": m})
        engine = cohomology(g, 2).betti
        formula = 2 * n * n - n + 2 * n * m + (m * m + m) // 2 - 1
        flag = "OK" if engine == formula else "MISMATCH"
        print(f"h(n={n}, m={m}): engine b_2 = {engine}, formula = {formula}  {flag}")
    print()


def poisson_section() -> None:
    print("== Poisson bracket table for g_4_1_s ==")
    q = build("g_4_1_s")
    three = q._three_form
    print(f"I = {three}")
    print(f"{{I, I}} = {poisson_bracket(q, three, three)}")
    for k in (1, 2):
        for m in cochain_basis(q, k).monomials:
            c = Cochain.from_terms(q.basis, {m: Fraction(1)})
            print(f"{{I, {c}}} = {poisson_bracket(q, three, c)}")
    print()


if __name__ == "__main__":
    betti_section()
    heisenberg_section()
    poisson_section()
