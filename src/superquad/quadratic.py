"""Invariant bilinear forms and quadratic Lie superalgebras.

A quadratic Lie superalgebra carries an even, supersymmetric, invariant,
non-degenerate bilinear form B.  This module stores B as a Gram matrix
over the graded basis, with its nonzeros by row and by column, validates
the four axioms exactly, and gives the Poisson bracket the columns of the
inverse Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from .algebra import (
    GradedBasis,
    LieSuperalgebra,
    Subspace,
    ValidationReport,
    Violation,
    center,
    reorder_basis,
    validate_grading_and_skew,
)
from .errors import EngineError, InputError
from .linalg import Echelon, Rat, _combine, _frac, _num, _sparse_rows, rank, rat, reduced_kernel

if TYPE_CHECKING:
    from .cochains import Cochain, _PoissonLeft


@dataclass(frozen=True)
class BilinearForm:
    """Bilinear form on a graded basis, stored as a dense Gram matrix."""

    basis: GradedBasis
    gram: tuple[tuple[Rat, ...], ...]

    def __post_init__(self):
        n, gram = self.basis.dim, self.gram
        if not (isinstance(gram, (list, tuple)) and len(gram) == n
                and all(isinstance(row, (list, tuple)) and len(row) == n for row in gram)):
            raise InputError(f"Gram matrix must be {n} lists or tuples of {n} values, one per basis vector")
        # forms built by the catalog and the loaders hold Fractions already: only the rest needs rat
        gram = tuple(tuple(v if type(v) is Fraction else rat(v) for v in row) for row in gram)
        object.__setattr__(self, "gram", gram)

    @classmethod
    def from_pairs(
        cls, basis: GradedBasis, pairs: Iterable[tuple[str, str, object]]
    ) -> "BilinearForm":
        """Build from (label, label, value) triples.

        Each unordered pair may be given once; the supersymmetric partner
        entry B(y, x) = (-1)**(|x||y|) B(x, y) is filled in automatically.
        Conflicting duplicate values are an error.
        """
        n, p = basis.dim, basis.parities
        gram: list[list[Rat | None]] = [[None] * n for _ in range(n)]
        for a, b, value in pairs:
            i, j = basis.index(a), basis.index(b)
            v = rat(value)
            for (r, c, val) in ((i, j, v), (j, i, -v if p[i] and p[j] else v)):
                if gram[r][c] is not None and gram[r][c] != val:
                    raise InputError(f"conflicting values for B({basis.labels[r]}, {basis.labels[c]})")
                gram[r][c] = val
        zero = Fraction(0)
        return cls(basis=basis, gram=tuple(tuple(zero if v is None else v for v in row) for row in gram))

    @cached_property
    def rows(self) -> list[dict[int, Rat]]:
        """B(e_i, .) as {j: B(e_i, e_j)} for each i, in the kernels' form
        (see ``linalg._num``), built once per form: read it, never reduce
        it in place."""
        return _sparse_rows(self.gram)

    @cached_property
    def columns(self) -> list[dict[int, Rat]]:
        """B(., e_j) as {i: B(e_i, e_j)} for each j, like ``rows``."""
        cols: list[dict[int, Rat]] = [{} for _ in self.gram]
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

    def value(self, x: Sequence[Rat], y: Sequence[Rat]) -> Rat:
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self.gram[i]
            for j, yj in enumerate(y):
                if yj != 0 and row[j] != 0:
                    total += xi * row[j] * yj
        return total


@dataclass(frozen=True)
class QuadraticLieSuperalgebra:
    algebra: LieSuperalgebra
    form: BilinearForm

    def __post_init__(self):
        if self.form.basis is not self.algebra.basis and self.form.basis != self.algebra.basis:
            raise InputError("form and algebra must share one basis")

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
        return tuple(validate_grading_and_skew(self.algebra)), tuple(validate_form(self.algebra, self.form))

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
        if self._form_violations:
            first = self._form_violations[0]
            raise InputError(
                f"quadratic algebra invalid: {first.rule} at {first.witness}: {first.message}"
            )


def _require_quadratic(q, what: str) -> QuadraticLieSuperalgebra:
    """q, or InputError naming ``what`` when q carries no form: the one
    type check of every entry point that needs a quadratic algebra."""
    if not isinstance(q, QuadraticLieSuperalgebra):
        raise InputError(f"{what} needs a quadratic Lie superalgebra, not a {type(q).__name__}")
    return q


def validate_form(g: LieSuperalgebra, form: BilinearForm) -> list[Violation]:
    """Check evenness, supersymmetry, invariance, non-degeneracy of B."""
    out: list[Violation] = []
    basis = g.basis
    n = basis.dim
    p = basis.parities
    labels = basis.labels
    rows, cols = form.rows, form.columns
    for i in range(n):
        for j in range(i, n):
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
    # invariance B([x,y],z) = B(x,[y,z]) on all basis triples: both sides
    # vanish off the union of the supports of B([e_i,e_j],.) and B(.,[e_j,e_k])
    table = g.bracket_table
    left = _combine(table, rows)  # (i, j) -> {k: B([e_i,e_j],e_k)}
    right = _combine(table, cols)  # (j, k) -> {i: B(e_i,[e_j,e_k])}
    triples = {(i, j, k) for (i, j), row in left.items() for k in row}
    triples.update((i, j, k) for (j, k), col in right.items() for i in col)
    for i, j, k in sorted(triples):
        lhs = left.get((i, j), {}).get(k, 0)
        rhs = right.get((j, k), {}).get(i, 0)
        if lhs != rhs:
            out.append(
                Violation(
                    rule="invariance",
                    witness=(labels[i], labels[j], labels[k]),
                    message=(
                        f"B([{labels[i]}, {labels[j]}], {labels[k]}) = {lhs} but "
                        f"B({labels[i]}, [{labels[j]}, {labels[k]}]) = {rhs}"
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


def is_graded_ideal(g: LieSuperalgebra, space: Subspace) -> bool:
    if not space.is_homogeneous():
        return False
    for row in space.rows:
        for j in range(g.dim):
            if not space.contains(g.bracket(list(row), g.basis_vector(j))):
                return False
    return True


def orthogonal_complement(q: QuadraticLieSuperalgebra, ideal: Subspace) -> Subspace:
    """B-orthogonal complement of a graded ideal.

    Computes {x : B(x, s) = 0 for all s in the ideal}, which is again a
    graded ideal by invariance of B.  When B restricted to the ideal is
    non-degenerate this asserts the stronger splitting facts: the ideal
    and its complement commute, intersect trivially, and together span.
    """
    _require_quadratic(q, "orthogonal_complement").require_form()
    if not is_graded_ideal(q.algebra, ideal):
        raise InputError("orthogonal_complement requires a graded ideal")
    n = q.dim
    # one equation per ideal row s: {i: B(e_i, s)}
    system = _combine(dict(enumerate(_sparse_rows(ideal.rows))), q.form.columns).values()
    kernel = reduced_kernel(list(system), n)
    comp = Subspace(q.basis, tuple(tuple(_frac(v.get(j, 0)) for j in range(n)) for v in kernel))
    if comp.dim + ideal.dim != n:
        raise EngineError("complement dimension defect for a non-degenerate form")
    k = ideal.dim
    sub_gram = [
        [q.form.value(list(ideal.rows[i]), list(ideal.rows[j])) for j in range(k)]
        for i in range(k)
    ]
    if rank(sub_gram) == k:
        # non-degenerate ideal: the splitting conclusions must hold exactly
        for a in ideal.rows:
            for b in comp.rows:
                if any(c != 0 for c in q.algebra.bracket(list(a), list(b))):
                    raise EngineError("non-degenerate ideal fails to commute with its complement")
        if rank(ideal.rows + comp.rows) != n:
            raise EngineError("non-degenerate ideal meets its complement nontrivially")
    return comp


def find_nondegenerate_central_line(q: QuadraticLieSuperalgebra) -> list[Rat] | None:
    """An even central vector x with B(x, x) != 0, if one exists.

    Restricting B to the even part of the center gives a symmetric
    form; a vector of nonzero square exists iff that restriction is
    nonzero, and then one is found among the basis vectors and simple
    sums v + w (since B(v+w, v+w) = 2 B(v, w) when both squares vanish).
    """
    _require_quadratic(q, "find_nondegenerate_central_line").require_form()
    z = center(q.algebra)
    ne = q.basis.even_dim
    even_rows = [list(r) for r in z.rows if all(c == 0 for c in r[ne:])]
    if not even_rows:
        return None
    k = len(even_rows)
    sub_gram = [
        [q.form.value(even_rows[i], even_rows[j]) for j in range(k)] for i in range(k)
    ]
    for i in range(k):
        if sub_gram[i][i] != 0:
            return even_rows[i]
    for i in range(k):
        for j in range(i + 1, k):
            if sub_gram[i][j] != 0:
                return [a + b for a, b in zip(even_rows[i], even_rows[j])]
    return None


def reorder_quadratic(
    q: QuadraticLieSuperalgebra, new_labels: Sequence[str]
) -> QuadraticLieSuperalgebra:
    g2 = reorder_basis(q.algebra, new_labels)
    old_index = {lab: i for i, lab in enumerate(q.basis.labels)}
    gram = tuple(
        tuple(q.form.gram[old_index[a]][old_index[b]] for b in new_labels)
        for a in new_labels
    )
    return QuadraticLieSuperalgebra(algebra=g2, form=BilinearForm(basis=g2.basis, gram=gram))
