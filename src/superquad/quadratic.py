"""Invariant bilinear forms and quadratic Lie superalgebras.

A quadratic Lie superalgebra carries an even, supersymmetric, invariant,
non-degenerate bilinear form B.  This module stores B as a Gram matrix
over the graded basis, validates the four axioms exactly, and produces
the dual frames the Poisson-bracket machinery needs:

* an even frame: the even basis itself together with the rows of the
  inverse even Gram matrix, so that B(dual_i, e_j) = delta_ij;
* a Darboux frame on the odd part: a symplectic basis X^1..X^n,
  Y^1..Y^n of the odd space (B restricted to the odd part of a
  quadratic Lie superalgebra is symplectic).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

    def even_block(self) -> list[list[Rat]]:
        ne = self.basis.even_dim
        return [[self.gram[i][j] for j in range(ne)] for i in range(ne)]

    def odd_block(self) -> list[list[Rat]]:
        ne, n = self.basis.even_dim, self.basis.dim
        return [[self.gram[i][j] for j in range(ne, n)] for i in range(ne, n)]


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


def symplectic_darboux(gram: Sequence[Sequence[Rat]]) -> list[list[Rat]]:
    """Darboux basis of a non-degenerate skew form, as matrix columns.

    Input is the 2n x 2n Gram matrix of a skew-symmetric non-degenerate
    form beta.  Output M has the new basis vectors as columns ordered
    X^1..X^n, Y^1..Y^n with beta(X^a, Y^b) = delta_ab and all other
    pairings zero, i.e. M^T G M = [[0, I], [-I, 0]].

    The construction is symplectic Gram-Schmidt: pick a pair (u, w) with
    beta(u, w) != 0, normalize, project the rest onto the beta-orthogonal
    complement of the plane, recurse.
    """
    m = len(gram)
    if m % 2 != 0:
        raise InputError("skew non-degenerate forms exist only in even dimension")
    for i in range(m):
        if gram[i][i] != 0:
            raise InputError("form is not skew-symmetric (nonzero diagonal)")
        for j in range(m):
            if gram[i][j] != -gram[j][i]:
                raise InputError("form is not skew-symmetric")

    def beta(x: list[Rat], y: list[Rat]) -> Rat:
        return sum(
            (xi * gram[i][j] * yj for i, xi in enumerate(x) for j, yj in enumerate(y) if xi and yj),
            Fraction(0),
        )

    working = [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    working = [list(col) for col in working]  # columns of the identity
    xs: list[list[Rat]] = []
    ys: list[list[Rat]] = []
    remaining = working
    while remaining:
        pair = None
        for a in range(len(remaining)):
            for b in range(a + 1, len(remaining)):
                if beta(remaining[a], remaining[b]) != 0:
                    pair = (a, b)
                    break
            if pair:
                break
        if pair is None:
            raise InputError("form is degenerate")
        a, b = pair
        u = remaining[a]
        val = beta(u, remaining[b])
        v = [Fraction(c, val) for c in remaining[b]]
        rest = [remaining[t] for t in range(len(remaining)) if t not in (a, b)]
        projected = []
        for w in rest:
            w2 = [
                wi - beta(w, v) * ui + beta(w, u) * vi
                for wi, ui, vi in zip(w, u, v)
            ]
            projected.append(w2)
        xs.append(u)
        ys.append(v)
        remaining = [w for w in projected if any(c != 0 for c in w)]
        if len(remaining) > m:
            raise InputError("symplectic reduction failed to shrink")
    cols = xs + ys
    if len(cols) != m:
        raise InputError("form is degenerate")
    return [[cols[j][i] for j in range(m)] for i in range(m)]


@dataclass(frozen=True)
class DarbouxFrame:
    """Dual frames used by the Poisson bracket.

    ``even_dual`` row i holds the coordinates (over the even basis) of
    the vector dual to even basis vector i, i.e. the rows of the inverse
    even Gram matrix.  ``odd_darboux`` columns are the odd Darboux
    vectors X^1..X^n, Y^1..Y^n expressed over the odd basis.
    """

    basis: GradedBasis
    even_dual: tuple[tuple[Rat, ...], ...]
    odd_darboux: tuple[tuple[Rat, ...], ...]

    @property
    def odd_pairs(self) -> int:
        return len(self.odd_darboux[0]) // 2 if self.odd_darboux else 0


def darboux_frame(q: QuadraticLieSuperalgebra) -> DarbouxFrame:
    basis = q.basis
    ne = basis.even_dim
    no = basis.odd_dim
    even_dual: tuple[tuple[Rat, ...], ...] = ()
    if ne:
        inv = inverse(q.form.even_block())
        even_dual = tuple(tuple(row) for row in inv)
    odd_darboux: tuple[tuple[Rat, ...], ...] = ()
    if no:
        m = symplectic_darboux(q.form.odd_block())
        odd_darboux = tuple(tuple(row) for row in m)
    return DarbouxFrame(basis=basis, even_dual=even_dual, odd_darboux=odd_darboux)


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
