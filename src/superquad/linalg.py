"""Exact linear algebra over the rationals.

Everything in the engine reduces, at the bottom, to row reduction of
matrices over Q, and all of it goes through one sparse reduced-echelon
routine, ``Echelon``: rows hold only their nonzeros, because the
differentials of the cochain complex are very sparse, and once it holds
enough rows it indexes them by column, so that a new pivot is cleared
from the rows that hold it without a look at the others.  Matrix rows at
the API are sequences or {column: nonzero} mappings; no numpy, no
pivoting heuristics.  Exactness is the point.

Inside the kernels an integral value is a plain ``int`` (``_num``) and
only a true fraction is a ``Fraction``; every value the API returns is a
``Fraction`` (``_frac``).  Every division is ``Fraction(p, q)``, so two
ints never divide into a float.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import inf

from .errors import InputError

Rat = Fraction
Rows = Sequence[Sequence[Rat] | Mapping[int, Rat]]  # dense rows or {column: nonzero}

_RAT_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")
# The kept-row count from which an Echelon indexes its rows by column.
# Below it, ``add`` visits every kept row for the new pivot; from it on, only
# the rows that hold it, at the price of building the index once and keeping
# it up to date (about 3 row visits per entry listed, 2 per fill or cancel).
# Counted that way over the catalog to degrees 2 and 6 and the frontier
# cases, 24 is within 21% of the least work for each of them; 1 (index from
# the first row) costs 2.2 times the least on g_8_2_5_s to degree 4, and 48
# 1.9 times on the catalog to degree 6.
_INDEX_FROM = 24


def rat(value) -> Rat:
    """Coerce ``value`` to an exact rational.

    Accepts Fraction, int, or a string "p" / "p/q".  Floats, decimal
    strings and bools are rejected: silent binary rounding, or True read
    as 1, has no place in an exact engine.  A Fraction or an int is
    caught by its exact type first; their subclasses by ``isinstance``.
    """
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not (m := _RAT_RE.fullmatch(text)):
            raise InputError(f"not an exact rational literal: {value!r}")
        p, q = m.groups()
        try:
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
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


def _check_degree(k, what: str = "cochain degree") -> None:
    """Raise InputError unless k is an int (not a bool) and k >= 0: the
    check of every public function that takes a degree."""
    if type(k) is bool or not isinstance(k, int):
        raise InputError(f"{what} must be an int, not {type(k).__name__}")
    if k < 0:
        raise InputError(f"{what} must be non-negative")


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
            {j: _num(x) for j, x in (r.items() if type(r) is dict or isinstance(r, Mapping)
                                     else enumerate(r)) if x}
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

    From ``_INDEX_FROM`` kept rows on, ``_cols`` indexes the rows by
    column: column j -> the set of pivots p with j in rows[p] (a set may
    be left empty).  ``add`` then clears a new pivot from the rows listed
    under it, not from every kept row, and updates the index as it
    subtracts; below that count it looks the pivot up in each row.  The
    rows are the same either way.
    """

    def __init__(self, rows: Iterable[dict[int, Rat]] = (), limit: float = inf) -> None:
        self.rows: dict[int, dict[int, Rat]] = {}
        self.limit = limit
        self._cols: dict[int, set[int]] | None = None
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
        rows, cols = self.rows, self._cols
        if cols is None:
            for row in rows.values():
                if a := row.get(pivot):
                    _subtract(row, a, new)
            rows[pivot] = new
            if len(rows) >= _INDEX_FROM:
                self._cols = cols = {}
                for p, row in rows.items():
                    _enter(cols, p, row)
            return True
        holders = cols.pop(pivot, ())
        _enter(cols, pivot, new)
        for p in holders:
            row = rows[p]
            a = row[pivot]
            for j, x in new.items():
                if (y := row.get(j)) is None:
                    row[j] = -a * x
                    cols[j].add(p)
                elif y := y - a * x:
                    row[j] = y
                else:
                    del row[j]
                    cols[j].discard(p)
        rows[pivot] = new
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


def _enter(cols: dict[int, set[int]], p: int, row: dict[int, Rat]) -> None:
    """List pivot p under each column of its row in the index ``cols``."""
    for j in row:
        if (s := cols.get(j)) is None:
            cols[j] = {p}
        else:
            s.add(p)


def _subtract(v: dict[int, Rat], a: Rat, row: dict[int, Rat]) -> None:
    """v -= a * row, in place, dropping the zeros this makes."""
    for j, x in row.items():
        if y := v.get(j, 0) - a * x:
            v[j] = y
        else:
            del v[j]


def rank(m: Rows) -> int:
    return len(Echelon(_sparse_rows(m)).rows)


def reduced_kernel(m: Sequence[Mapping[int, Rat]], cols: int) -> list[dict[int, Rat]]:
    """The reduced row echelon basis of {v : m v = 0} in ``cols`` columns,
    as {column: nonzero}, ascending, in the kernels' form (see ``_num``)
    when m is.  The rows of m are zero-free {column: exact value} dicts,
    read, never changed.

    ``Echelon.kernel`` puts each vector's 1 at its own free column, so its
    basis is reduced when read with the columns reversed: m is eliminated
    with its columns reversed and the kernel read back, last vector first.
    """
    last = cols - 1
    rows = [{last - j: x for j, x in r.items()} for r in m]
    return [{last - j: x for j, x in v.items()} for v in reversed(Echelon(rows).kernel(cols))]
