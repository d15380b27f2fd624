"""Exact linear algebra over the rationals.

Everything in the engine reduces, at the bottom, to row reduction of
matrices with ``fractions.Fraction`` entries.  The helpers here are
deliberately plain: lists of lists, no numpy, no pivoting heuristics.
Exactness is the point; speed is adequate for the dimensions at hand
(a dozen basis vectors, cochain spaces up to a few thousand monomials).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError

Rat = Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def rat(value) -> Rat:
    """Coerce ``value`` to an exact rational.

    Accepts Fraction, int, or a string "p" / "p/q".  Floats and decimal
    strings are rejected: silent binary rounding has no place in an
    exact engine.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RAT_RE.match(text):
            raise InputError(f"not an exact rational literal: {value!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise InputError(f"zero denominator: {value!r}") from None
        except ValueError:  # beyond the interpreter's int digit limit
            raise InputError(
                f"rational literal of {len(text)} characters is too long"
            ) from None
    raise InputError(f"not an exact rational: {value!r} of type {type(value).__name__}")


def rat_str(x: Rat) -> str:
    """Render a rational as "p" or "p/q" (no floats ever)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def zeros(rows: int, cols: int) -> list[list[Rat]]:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> list[list[Rat]]:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def transpose(m: Sequence[Sequence[Rat]]) -> list[list[Rat]]:
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def mat_mul(a: Sequence[Sequence[Rat]], b: Sequence[Sequence[Rat]]) -> list[list[Rat]]:
    if a and b and len(a[0]) != len(b):
        raise InputError("matrix product shape mismatch")
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def rref(m: Sequence[Sequence[Rat]]) -> tuple[list[list[Rat]], list[int]]:
    """Reduced row echelon form with leftmost pivots.

    Returns (R, pivots) where pivots[i] is the column of the leading 1
    in row i; zero rows are dropped from R.
    """
    work = [list(row) for row in m]
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][c] ** -1
        work[r] = [x * inv for x in work[r]]
        for i in range(rows):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return work[:r], pivots


def rank(m: Sequence[Sequence[Rat]]) -> int:
    return len(rref(m)[0])


def nullspace(m: Sequence[Sequence[Rat]], cols: int | None = None) -> list[list[Rat]]:
    """Basis of the right kernel {v : m v = 0}, one vector per free column.

    The vectors are normalized so the free coordinate is 1; listing free
    columns in ascending order makes the output canonical.
    """
    if cols is None:
        if not m:
            raise InputError("nullspace of an empty matrix needs an explicit column count")
        cols = len(m[0])
    reduced, pivots = rref(m) if m else ([], [])
    pivot_set = set(pivots)
    basis: list[list[Rat]] = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


def inverse(m: Sequence[Sequence[Rat]]) -> list[list[Rat]]:
    n = len(m)
    if any(len(row) != n for row in m):
        raise InputError("inverse requires a square matrix")
    aug = [list(row) + list(e) for row, e in zip(m, identity(n))]
    reduced, pivots = rref(aug)
    if len(reduced) != n or pivots[:n] != list(range(n)):
        raise InputError("matrix is singular")
    return [row[n:] for row in reduced]


def echelon_basis(vectors: Iterable[Sequence[Rat]]) -> list[list[Rat]]:
    """RREF basis of the span of the given vectors (dropping zero rows)."""
    rows = [list(v) for v in vectors]
    if not rows:
        return []
    return rref(rows)[0]


def solve(m: Sequence[Sequence[Rat]], b: Sequence[Rat]) -> list[Rat] | None:
    """One solution of m x = b, or None if inconsistent."""
    if not m:
        return None
    cols = len(m[0])
    aug = [list(row) + [val] for row, val in zip(m, b)]
    reduced, pivots = rref(aug)
    for row, pc in zip(reduced, pivots):
        if pc == cols:
            return None
    x = [Fraction(0)] * cols
    for row, pc in zip(reduced, pivots):
        x[pc] = row[cols]
    return x
