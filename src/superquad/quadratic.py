"""Invariant bilinear forms and quadratic Lie superalgebras.

A quadratic Lie superalgebra carries an even, supersymmetric, invariant,
non-degenerate bilinear form B.  This module stores B by its nonzeros
only, row by row over the graded basis (the columns are built from the
rows when first read), so a form costs its number of nonzeros, not n².
It validates the four axioms exactly, and gives the Poisson bracket the
columns of the inverse Gram matrix.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from typing import TYPE_CHECKING

from ._frozen import Frozen
from .algebra import (
    GradedBasis,
    LieSuperalgebra,
    ValidationReport,
    Violation,
    _is_index,
    reorder_basis,
    validate_grading_and_skew,
)
from .errors import InputError
from .linalg import Echelon, Rat, _combine, _num, rank, rat

if TYPE_CHECKING:
    from .cochains import Cochain, _PoissonLeft


class BilinearForm(Frozen):
    """Bilinear form on a graded basis, stored as its nonzero rows:
    ``rows[i]`` is B(e_i, .) as {j: B(e_i, e_j)}, zeros left out, in the
    kernels' form (see ``linalg._num``).  Read the rows, never change them
    in place."""

    _fields = ("basis", "rows")

    def __init__(self, basis: GradedBasis, rows: Sequence[Mapping[int, object]]):
        n = basis.dim
        if not (isinstance(rows, (list, tuple)) and len(rows) == n
                and all(type(row) is dict or isinstance(row, Mapping) for row in rows)):
            raise InputError(f"form rows must be {n} mappings {{column: value}}, one per basis vector")
        out = []
        for i, row in enumerate(rows):
            entry = {}
            for j, x in row.items():
                if not _is_index(j, n):
                    raise InputError(f"form column {j!r} of row {i} out of range")
                if v := rat(x):
                    entry[j] = _num(v)
            out.append(entry)
        self.__dict__.update(basis=basis, rows=tuple(out))

    def __hash__(self) -> int:
        # equal rows are equal as frozensets of their nonzeros
        return hash((self.basis, tuple(frozenset(row.items()) for row in self.rows)))

    @classmethod
    def from_pairs(
        cls, basis: GradedBasis, pairs: Iterable[tuple[str, str, object]]
    ) -> "BilinearForm":
        """Build from (label, label, value) triples.

        Each unordered pair may be given once; the supersymmetric partner
        entry B(y, x) = (-1)**(|x||y|) B(x, y) is filled in automatically.
        Conflicting duplicate values, a given zero among them, are an error.
        """
        p, given = basis.parities, {}
        for a, b, value in pairs:
            i, j = basis.index(a), basis.index(b)
            v = rat(value)
            for (r, c, val) in ((i, j, v), (j, i, -v if p[i] and p[j] else v)):
                if (old := given.setdefault((r, c), val)) is not val and old != val:
                    raise InputError(f"conflicting values for B({basis.labels[r]}, {basis.labels[c]})")
        rows: list[dict[int, Rat]] = [{} for _ in p]
        for (r, c), val in given.items():
            rows[r][c] = val
        return cls(basis=basis, rows=rows)

    @cached_property
    def columns(self) -> list[dict[int, Rat]]:
        """B(., e_j) as {i: B(e_i, e_j)} for each j, like ``rows``."""
        cols: list[dict[int, Rat]] = [{} for _ in self.rows]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j][i] = x
        return cols

    @cached_property
    def inverse_columns(self) -> list[dict[int, Rat]]:
        """The columns of G^-1 as {row: nonzero}, like ``rows``, from one
        ``Echelon`` of [G^T | 1]: reduced, its row p is e_p followed by
        column p of G^-1.  Raises InputError when G is singular."""
        n = self.basis.dim
        echelon = Echelon(({**col, n + p: 1} for p, col in enumerate(self.columns)), limit=n)
        if len(echelon.rows) < n:
            raise InputError("the Gram matrix is singular: the form is degenerate")
        return [{j - n: _num(x) for j, x in echelon.rows[p].items() if j >= n} for p in range(n)]


class QuadraticLieSuperalgebra(Frozen):
    _fields = ("algebra", "form")

    def __init__(self, algebra: LieSuperalgebra, form: BilinearForm):
        if form.basis is not algebra.basis and form.basis != algebra.basis:
            raise InputError("form and algebra must share one basis")
        self.__dict__.update(algebra=algebra, form=form)

    @property
    def basis(self) -> GradedBasis:
        return self.algebra.basis

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def _checks(self) -> tuple[tuple[Violation, ...], tuple[Violation, ...]]:
        """Every rule of ``validate_quadratic`` but super Jacobi, which the
        cohomology's B^k in Z^k check catches: the grading of the bracket
        and the form's axioms, kept apart.  Run once per object."""
        return tuple(validate_grading_and_skew(self.algebra)), tuple(_form_check(self.algebra, self.form, self._bracket_form))

    @cached_property
    def _bracket_form(self) -> dict[tuple[int, int], dict[int, Rat]]:
        """B([e_i, e_j], .) as {(i, j): {k: B([e_i, e_j], e_k)}} for every
        nonzero bracket of ``bracket_table``, in the kernels' form, built
        once per object: the form check and I (``_three_form``) read it."""
        return _combine(self.algebra.bracket_table, self.form.rows)

    @cached_property
    def _three_form(self) -> Cochain:
        """I (``cochains.associated_three_form``), built once per object."""
        from .cochains import associated_three_form

        return associated_three_form(self)

    @cached_property
    def _three_form_left(self) -> _PoissonLeft:
        """I's side of {I, .} (``cochains._poisson_left``), built once per object."""
        from .cochains import _poisson_left

        return _poisson_left(self, self._three_form)

    @property
    def _form_violations(self) -> tuple[Violation, ...]:
        grading, form = self._checks
        return grading + form

    def require_form(self) -> None:
        """Raise InputError naming the first of ``_form_violations``."""
        ValidationReport(self._form_violations)._raise_first("quadratic algebra invalid", InputError)


def _require_quadratic(q, what: str) -> QuadraticLieSuperalgebra:
    """q, or InputError naming ``what`` when q carries no form: the one
    type check of every entry point that needs a quadratic algebra."""
    if not isinstance(q, QuadraticLieSuperalgebra):
        raise InputError(f"{what} needs a quadratic Lie superalgebra, not a {type(q).__name__}")
    return q


def validate_form(g: LieSuperalgebra, form: BilinearForm) -> list[Violation]:
    """Check evenness, supersymmetry, invariance, non-degeneracy of B."""
    return _form_check(g, form, _combine(g.bracket_table, form.rows))


def _form_check(g: LieSuperalgebra, form: BilinearForm, left: dict) -> list[Violation]:
    """``validate_form``, given left = B([e_i, e_j], .) (``_bracket_form``)."""
    out: list[Violation] = []
    basis = g.basis
    n = basis.dim
    p = basis.parities
    labels = basis.labels
    rows = form.rows
    # only a pair with a nonzero at (i, j) or (j, i) can break evenness or
    # supersymmetry: walk those, as (min, max), in order
    for i, j in sorted({(i, j) if i <= j else (j, i) for i, row in enumerate(rows) for j in row}):
        gij = rows[i].get(j, 0)
        if p[i] != p[j] and gij:
            out.append(
                Violation(
                    rule="even",
                    witness=(labels[i], labels[j]),
                    message=f"B({labels[i]}, {labels[j]}) pairs opposite parities but is nonzero",
                )
            )
        if rows[j].get(i, 0) != (-gij if p[i] and p[j] else gij):
            out.append(
                Violation(
                    rule="supersymmetry",
                    witness=(labels[i], labels[j]),
                    message=(
                        f"B({labels[j]}, {labels[i]}) != "
                        f"(-1)^(|{labels[i]}||{labels[j]}|) B({labels[i]}, {labels[j]})"
                    ),
                )
            )
    # invariance B([x,y],z) = B(x,[y,z]) on all basis triples, both sides
    # keyed by triple, zeros left out.  An even supersymmetric B has
    # B(e_i, e_t) = (-1)^|e_i| B(e_t, e_i), so then B(e_i, [e_j, e_k]) is
    # read off B([e_j, e_k], e_i); otherwise it is summed from B's columns
    lhs = {(i, j, k): x for (i, j), row in left.items() for k, x in row.items()}
    if out:
        right = _combine(g.bracket_table, form.columns)  # (j, k) -> {i: B(e_i,[e_j,e_k])}
        rhs = {(i, j, k): x for (j, k), col in right.items() for i, x in col.items()}
    else:
        rhs = {(i, j, k): -x if p[i] else x for (j, k), row in left.items() for i, x in row.items()}
    if lhs != rhs:
        for i, j, k in sorted(lhs.keys() | rhs.keys()):
            a, b = lhs.get((i, j, k), 0), rhs.get((i, j, k), 0)
            if a != b:
                out.append(
                    Violation(
                        rule="invariance",
                        witness=(labels[i], labels[j], labels[k]),
                        message=(
                            f"B([{labels[i]}, {labels[j]}], {labels[k]}) = {a} but "
                            f"B({labels[i]}, [{labels[j]}, {labels[k]}]) = {b}"
                        ),
                    )
                )
    gram_rank = rank(rows)
    if gram_rank != n:
        out.append(
            Violation(
                rule="nondegenerate",
                witness=(),
                message=f"Gram matrix has rank {gram_rank} < {n}",
            )
        )
    return out


def validate_quadratic(q: QuadraticLieSuperalgebra) -> ValidationReport:
    """Every rule: the grading, super Jacobi, then the form's axioms.  Each
    runs once per object: super Jacobi is ``q.algebra._jacobi`` and the rest
    ``q._checks``, so a later call or ``require_form`` checks nothing again."""
    grading, form = q._checks
    return ValidationReport(grading + q.algebra._jacobi + form)


def reorder_quadratic(
    q: QuadraticLieSuperalgebra, new_labels: Sequence[str]
) -> QuadraticLieSuperalgebra:
    g2 = reorder_basis(q.algebra, new_labels)
    new = [g2.basis.index(lab) for lab in q.basis.labels]
    rows: list[dict[int, Rat]] = [{} for _ in new]
    for i, row in enumerate(q.form.rows):
        rows[new[i]] = {new[j]: v for j, v in row.items()}
    return QuadraticLieSuperalgebra(algebra=g2, form=BilinearForm(basis=g2.basis, rows=rows))
