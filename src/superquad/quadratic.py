"""Invariant bilinear forms and quadratic Lie superalgebras.

A quadratic Lie superalgebra carries an even, supersymmetric, invariant,
non-degenerate bilinear form B.  This module stores B as a Gram matrix
over the graded basis, validates the four axioms exactly, and gives the
Poisson bracket the columns of the inverse Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .algebra import GradedBasis, LieSuperalgebra, Subspace, ValidationReport, Violation, validate_lie_superalgebra
from .errors import EngineError, InputError
from .linalg import Rat, _combine, _frac, _sparse_rows, echelon_basis, inverse, rank, rat, reduced_kernel, transpose


@dataclass(frozen=True)
class BilinearForm:
    """Bilinear form on a graded basis, stored as a dense Gram matrix."""

    basis: GradedBasis
    gram: tuple[tuple[Rat, ...], ...]

    def __post_init__(self):
        n = self.basis.dim
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise InputError("Gram matrix shape does not match the basis")
        # forms built by the catalog and the loaders hold Fractions already: only the rest needs rat
        gram = tuple(tuple(v if type(v) is Fraction else rat(v) for v in row) for row in self.gram)
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
        n = basis.dim
        gram: list[list[Rat | None]] = [[None] * n for _ in range(n)]
        for a, b, value in pairs:
            i, j = basis.index(a), basis.index(b)
            v = rat(value)
            sign = Fraction(-1) ** (basis.parities[i] * basis.parities[j])
            for (r, c, val) in ((i, j, v), (j, i, sign * v)):
                if gram[r][c] is not None and gram[r][c] != val:
                    raise InputError(f"conflicting values for B({basis.labels[r]}, {basis.labels[c]})")
                gram[r][c] = val
        filled = tuple(
            tuple(v if v is not None else Fraction(0) for v in row) for row in gram
        )
        return cls(basis=basis, gram=filled)

    @cached_property
    def inverse_columns(self) -> list[dict[int, Rat]]:
        """The columns of G^-1 as {row: nonzero} in the kernels' form (see
        ``linalg._num``), built once per form.  Raises InputError unless
        the form is even, supersymmetric and non-degenerate, checking the
        nonzeros of G before inverting it."""
        parities = self.basis.parities
        rows = _sparse_rows(self.gram)
        for r, row in enumerate(rows):
            for s, x in row.items():
                if parities[r] != parities[s]:
                    raise InputError("the form pairs opposite parities: it is not even")
                if rows[s].get(r, 0) != (-x if parities[r] else x):
                    raise InputError("the form is not supersymmetric")
        return _sparse_rows(transpose(inverse(self.gram)))

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


def validate_form(g: LieSuperalgebra, form: BilinearForm) -> list[Violation]:
    """Check evenness, supersymmetry, invariance, non-degeneracy of B."""
    out: list[Violation] = []
    basis = g.basis
    n = basis.dim
    p = basis.parities
    labels = basis.labels
    gram = form.gram
    rows = _sparse_rows(gram)  # B(e_i, .) as {j: B(e_i, e_j)}
    cols = _sparse_rows(transpose(gram))  # B(., e_j) as {i: B(e_i, e_j)}
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
    table = g.bracket_table()
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
    gram_rank = rank([list(row) for row in gram])
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
    violations = list(validate_lie_superalgebra(q.algebra).violations)
    violations += validate_form(q.algebra, q.form)
    return ValidationReport(tuple(violations))


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
    if not is_graded_ideal(q.algebra, ideal):
        raise InputError("orthogonal_complement requires a graded ideal")
    n = q.dim
    system = [[q.form.value(_unit(n, i), list(row)) for i in range(n)] for row in ideal.rows]
    kernel = reduced_kernel(system, n)
    comp = Subspace(q.basis, tuple(tuple(_frac(v.get(j, 0)) for j in range(n)) for v in kernel))
    if comp.dim + ideal.dim != n:
        raise EngineError("complement dimension defect: the form must be degenerate")
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
        joint = echelon_basis([list(r) for r in ideal.rows] + [list(r) for r in comp.rows])
        if len(joint) != n:
            raise EngineError("non-degenerate ideal meets its complement nontrivially")
    return comp


def _unit(n: int, i: int) -> list[Rat]:
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def find_nondegenerate_central_line(q: QuadraticLieSuperalgebra) -> list[Rat] | None:
    """An even central vector x with B(x, x) != 0, if one exists.

    Restricting B to the even part of the center gives a symmetric
    form; a vector of nonzero square exists iff that restriction is
    nonzero, and then one is found among the basis vectors and simple
    sums v + w (since B(v+w, v+w) = 2 B(v, w) when both squares vanish).
    """
    from .algebra import center

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
    from .algebra import reorder_basis

    g2 = reorder_basis(q.algebra, new_labels)
    old_index = {lab: i for i, lab in enumerate(q.basis.labels)}
    gram = tuple(
        tuple(q.form.gram[old_index[a]][old_index[b]] for b in new_labels)
        for a in new_labels
    )
    return QuadraticLieSuperalgebra(algebra=g2, form=BilinearForm(basis=g2.basis, gram=gram))
