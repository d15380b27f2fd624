"""Exact linear algebra over the rationals.

Everything in the engine reduces, at the bottom, to row reduction of
matrices with ``fractions.Fraction`` entries, and all of it goes through
one sparse reduced-echelon routine, ``Echelon``: rows hold only their
nonzeros, because the differentials of the cochain complex are very
sparse.  Matrices at the API are plain lists of lists; no numpy, no
pivoting heuristics.  Exactness is the point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import inf
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


class Echelon:
    """Sparse reduced row echelon form over Q, fed dense rows in order.

    ``rows`` maps each pivot to its row {column: nonzero}, 1 at its pivot
    (its leftmost nonzero) and 0 at every other pivot.  Columns from
    ``limit`` on never become pivots; row operations carry them along.
    """

    def __init__(self, rows: Iterable[Sequence[Rat]] = (), limit: float = inf) -> None:
        self.rows: dict[int, dict[int, Rat]] = {}
        self.limit = limit
        for row in rows:
            self.add({j: x for j, x in enumerate(row) if x})

    def remainder(self, v: dict[int, Rat]) -> dict[int, Rat]:
        """Clear v, in place, at every pivot: what is left is the one vector
        of v + span(rows) zero there, whatever order the rows came in."""
        for p in [j for j in v if j in self.rows]:
            _subtract(v, v[p], self.rows[p])
        return v

    def add(self, v: dict[int, Rat]) -> bool:
        """Reduce v; if a nonzero is left before ``limit``, v becomes the row
        of its leftmost column, scaled to 1, cleared from the other rows."""
        pivot = min(self.remainder(v), default=self.limit)
        if pivot >= self.limit:
            return False
        inv = Fraction(1) / v[pivot]
        new = {j: x * inv for j, x in v.items()}
        for row in self.rows.values():
            if a := row.get(pivot):
                _subtract(row, a, new)
        self.rows[pivot] = new
        return True


def _subtract(v: dict[int, Rat], a: Rat, row: dict[int, Rat]) -> None:
    """v -= a * row, in place, dropping the zeros this makes."""
    for j, x in row.items():
        if y := v.get(j, 0) - a * x:
            v[j] = y
        else:
            del v[j]


def rref(m: Sequence[Sequence[Rat]]) -> tuple[list[list[Rat]], list[int]]:
    """Reduced row echelon form with leftmost pivots.

    Returns (R, pivots) where pivots[i] is the column of the leading 1
    in row i; zero rows are dropped from R.  Only R is made dense.
    """
    rows, zero = Echelon(m).rows, Fraction(0)
    pivots, cols = sorted(rows), range(len(m[0]) if m else 0)
    return [[rows[p].get(j, zero) for j in cols] for p in pivots], pivots


def rank(m: Sequence[Sequence[Rat]]) -> int:
    return len(Echelon(m).rows)


def nullspace(m: Sequence[Sequence[Rat]], cols: int | None = None) -> list[list[Rat]]:
    """Basis of the right kernel {v : m v = 0}, one vector per free column.

    The vectors are normalized so the free coordinate is 1; listing free
    columns in ascending order makes the output canonical.
    """
    if cols is None:
        if not m:
            raise InputError("nullspace of an empty matrix needs an explicit column count")
        cols = len(m[0])
    reduced, pivots = rref(m)
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
    return rref([list(v) for v in vectors])[0]


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
