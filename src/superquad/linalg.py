"""Exact linear algebra over the rationals.

Everything in the engine reduces, at the bottom, to row reduction of
matrices over Q, and all of it goes through one sparse reduced-echelon
routine, ``Echelon``: rows hold only their nonzeros, because the
differentials of the cochain complex are very sparse.  Matrix rows at the
API are sequences or {column: nonzero} mappings; no numpy, no pivoting
heuristics.  Exactness is the point.

Inside the kernels an integral value is a plain ``int`` (``_num``) and
only a true fraction is a ``Fraction``; every value the API returns is a
``Fraction`` (``_frac``).  Every division is ``Fraction(p, q)``, so two
ints never divide into a float.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import inf
from typing import Iterable, Mapping, Sequence

from .errors import InputError

Rat = Fraction
Rows = Sequence[Sequence[Rat] | Mapping[int, Rat]]  # dense rows or {column: nonzero}

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
    """Render an exact rational as "p" or "p/q"; anything ``rat`` refuses,
    a float among them, is an InputError."""
    x = rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _num(x: Rat | int) -> Rat | int:
    """x in the kernels' form: an int when integral, else the Fraction."""
    return x.numerator if x.denominator == 1 else x


def _frac(x: Rat | int) -> Rat:
    """A kernel value in the API's form, a Fraction."""
    return Fraction(x) if type(x) is int else x


def _sparse_rows(m: Rows) -> list[dict[int, Rat]]:
    """Rows of m as new {column: nonzero} dicts in the kernels' form (see
    ``_num``), for Echelon to reduce in place."""
    try:
        return [
            {j: _num(x) for j, x in (r.items() if isinstance(r, Mapping) else enumerate(r)) if x}
            for r in m
        ]
    except AttributeError:  # a float, or anything else without a denominator
        raise InputError("matrix entries must be exact rationals (int or Fraction)") from None


def _combine(vectors: Mapping, rows: Sequence[Mapping[int, Rat]]) -> dict:
    """{key: sum over t -> c in vectors[key] of c * rows[t]}, zeros dropped.

    With the bracket table as ``vectors`` and the sparse Gram rows as
    ``rows`` this is B([e_i, e_j], .) for every pair at once.
    """
    out = {}
    for key, v in vectors.items():
        acc: dict[int, Rat] = {}
        for t, c in v.items():
            for k, x in rows[t].items():
                acc[k] = acc.get(k, 0) + c * x
        out[key] = {k: x for k, x in acc.items() if x}
    return out


class Echelon:
    """Sparse reduced row echelon form over Q, fed {column: nonzero} rows in
    order, which it reduces in place.

    ``rows`` maps each pivot to its row {column: nonzero}, 1 at its pivot
    (its leftmost nonzero) and 0 at every other pivot.  Columns from
    ``limit`` on never become pivots; row operations carry them along.
    """

    def __init__(self, rows: Iterable[dict[int, Rat]] = (), limit: float = inf) -> None:
        self.rows: dict[int, dict[int, Rat]] = {}
        self.limit = limit
        for row in rows:
            self.add(row)

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
        lead = v[pivot]
        if lead == 1:
            new = v
        elif lead == -1:
            new = {j: -x for j, x in v.items()}
        else:
            inv = Fraction(1, lead)
            new = {j: _num(x * inv) for j, x in v.items()}
        for row in self.rows.values():
            if a := row.get(pivot):
                _subtract(row, a, new)
        self.rows[pivot] = new
        return True

    def kernel(self, cols: int) -> list[dict[int, Rat]]:
        """Basis of {v : row . v = 0 for every row} in ``cols`` columns, one
        vector per free column, ascending: 1 at its free column f and minus
        row[f] at the pivot of each row."""
        minus: dict[int, dict[int, Rat]] = {}  # column f -> {pivot: -row[f]}
        for p, row in self.rows.items():
            for j, x in row.items():
                minus.setdefault(j, {})[p] = -x
        return [{f: 1, **minus.get(f, {})} for f in range(cols) if f not in self.rows]


def _subtract(v: dict[int, Rat], a: Rat, row: dict[int, Rat]) -> None:
    """v -= a * row, in place, dropping the zeros this makes."""
    for j, x in row.items():
        if y := v.get(j, 0) - a * x:
            v[j] = y
        else:
            del v[j]


def rank(m: Rows) -> int:
    return len(Echelon(_sparse_rows(m)).rows)


def reduced_kernel(m: Rows, cols: int) -> list[dict[int, Rat]]:
    """The reduced row echelon basis of {v : m v = 0} in ``cols`` columns,
    as {column: nonzero} in the kernels' form (see ``_num``), ascending.

    ``Echelon.kernel`` puts each vector's 1 at its own free column, so its
    basis is reduced when read with the columns reversed: m is eliminated
    with its columns reversed and the kernel read back, last vector first.
    """
    last = cols - 1
    rows = [{last - j: x for j, x in r.items()} for r in _sparse_rows(m)]
    return [{last - j: x for j, x in v.items()} for v in reversed(Echelon(rows).kernel(cols))]
