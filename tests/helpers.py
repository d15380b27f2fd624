"""Shared test utilities, including independent oracles.

The evaluation differential here is the formula of README.md applied on
every canonical argument tuple; the engine builds delta from the
Leibniz rule on degree-1 duals instead, so agreement is a real check.
The Poisson oracle deliberately avoids the closed-form double sum
used by the engine: it extends the degree-1 dual pairings (inverse Gram
blocks) by the graded biderivation rules alone.  Agreement between the
two is a meaningful check, not a tautology.
``rref_dense`` is the dense Gauss-Jordan elimination the engine's sparse
echelon replaced; RREF is unique, so the two must agree exactly.
"""
from __future__ import annotations

import random
from fractions import Fraction

from superquad import BilinearForm, LieSuperalgebra, QuadraticLieSuperalgebra, build
from superquad.cochains import (
    Cochain,
    Monomial,
    evaluate,
    from_values,
    monomials_of_degree,
    wedge,
)
from superquad.linalg import Rat, echelon_basis, inverse, nullspace, rank

QUADRATIC_KEYS = (
    "g_4_1_s",
    "g_4_2_s",
    "g_6_s",
    "g_6_1",
    "g_6_2",
    "g_6_3",
    "g_8_2_1_s",
    "g_8_2_2_s",
    "g_8_2_3_s",
    "g_8_2_4_s",
    "g_8_2_5_s",
    "g_8_2_6_s",
    "g_8_2_7_s",
    "g_8_2_8_s",
    "g_8_2_9_s",
    "g_dec",
)


# [a,b] = a, [a,c] = c, [b,c] = a: super Jacobi fails at (a, b, c)
NON_JACOBI_DOC = {
    "basis": [
        {"label": "a", "parity": 0},
        {"label": "b", "parity": 0},
        {"label": "c", "parity": 0},
    ],
    "brackets": [
        {"left": "a", "right": "b", "terms": [{"basis": "a", "coeff": "1"}]},
        {"left": "a", "right": "c", "terms": [{"basis": "c", "coeff": "1"}]},
        {"left": "b", "right": "c", "terms": [{"basis": "a", "coeff": "1"}]},
    ],
}


def doubled_odd_form(key: str = "g_4_1_s") -> QuadraticLieSuperalgebra:
    """A catalog algebra with its odd Gram block doubled: the form stays
    non-degenerate and supersymmetric but is no longer invariant."""
    q = build(key)
    p = q.basis.parities
    gram = tuple(
        tuple(2 * x if p[i] and p[j] else x for j, x in enumerate(row))
        for i, row in enumerate(q.form.gram)
    )
    return QuadraticLieSuperalgebra(q.algebra, BilinearForm(q.basis, gram))


def mono(q_or_basis, even_labels=(), odd_labels=(), coeff=1) -> Cochain:
    """Cochain with a single monomial given by basis labels."""
    basis = getattr(q_or_basis, "basis", q_or_basis)
    even = tuple(basis.index(lab) for lab in even_labels)
    odd = tuple(basis.index(lab) for lab in odd_labels)
    m = Monomial(even=even, odd=odd)
    return Cochain.from_terms(basis, {m: Fraction(coeff)})


def bidegree(m: Monomial) -> tuple[int, int]:
    """Z x Z2 bidegree (total degree, parity of the symmetric degree)."""
    return (m.degree, m.z2_degree)


def koszul(d1: tuple[int, int], d2: tuple[int, int]) -> int:
    return -1 if (d1[0] * d2[0] + d1[1] * d2[1]) % 2 else 1


def differential_by_evaluation(g: LieSuperalgebra, c: Cochain) -> Cochain:
    """The differential computed by evaluation.

    For a degree-k piece omega,
    (delta omega)(X_0..X_k) = sum_{r<s} (-1)^{s + x_s(x_{r+1}+..+x_{s-1})}
        omega(X_0,..,X_{r-1}, [X_r,X_s], X_{r+1},.., X_s omitted,.., X_k),
    evaluated on every canonical tuple of length k+1 and re-expanded in
    monomials.  The degree-0 piece maps to zero.
    """
    basis = g.basis
    parities = basis.parities
    out = Cochain.zero(basis)
    degrees = sorted({m.degree for m, _ in c.terms})
    for k in degrees:
        if k == 0:
            continue
        piece = Cochain.from_terms(basis, {m: v for m, v in c.terms if m.degree == k})

        def value_on(args: tuple[int, ...], piece=piece) -> Rat:
            total = Fraction(0)
            for s in range(len(args)):
                xs = parities[args[s]]
                for r in range(s):
                    # parity sum of arguments strictly between r and s
                    between = sum(parities[args[t]] for t in range(r + 1, s))
                    sgn = -1 if (s + xs * between) % 2 else 1
                    # the bracket replaces slot r; slot s is omitted
                    for target, coeff in g.bracket_pair(args[r], args[s]).items():
                        plugged = args[:r] + (target,) + args[r + 1 : s] + args[s + 1 :]
                        total += sgn * coeff * evaluate(piece, plugged)
            return total

        out = out + from_values(basis, k + 1, value_on)
    return out


def representatives_by_rank(d_k, d_prev) -> list[list[Rat]]:
    """Reference H^k representatives from dense elimination.

    Scan the echelonized cocycles (the kernel of the DifferentialMatrix
    d_k) and keep those that grow the rank of the running span of the
    coboundaries (the columns of d_prev, or none when d_prev is None),
    taking the rank from scratch once per cocycle.
    """
    cocycles = nullspace([list(r) for r in d_k.entries], d_k.shape[1])
    span = [list(col) for col in zip(*d_prev.entries)] if d_prev is not None else []
    current = rank(span) if span else 0
    reps: list[list[Rat]] = []
    for v in echelon_basis(cocycles):
        candidate = span + [list(v)]
        r = rank(candidate)
        if r > current:
            reps.append(v)
            span = candidate
            current = r
    return reps


def rref_dense(m) -> tuple[list[list[Rat]], list[int]]:
    """Reference reduced row echelon form by dense Gauss-Jordan elimination.

    Every row is a full list of Fractions; the pivot of each column is the
    first nonzero at or below the current row.  Returns (R, pivots) like
    ``linalg.rref``: R is unique, so the two must agree exactly.
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


def random_homogeneous(
    basis, rng: random.Random, max_degree: int = 2, max_terms: int = 2
) -> tuple[Cochain, tuple[int, int]]:
    """Random nonzero cochain homogeneous in both Z and Z2 degrees."""
    k = rng.randint(1, max_degree)
    by_bidegree: dict[tuple[int, int], list[Monomial]] = {}
    for m in monomials_of_degree(basis, k):
        by_bidegree.setdefault(bidegree(m), []).append(m)
    deg = rng.choice(sorted(by_bidegree))
    pool = by_bidegree[deg]
    picks = rng.sample(pool, min(len(pool), rng.randint(1, max_terms)))
    terms = {m: Fraction(rng.randint(-3, 3) or 1) for m in picks}
    return Cochain.from_terms(basis, terms), deg


class PoissonOracle:
    """Bracket defined only by the dual pairings and biderivation rules."""

    def __init__(self, q: QuadraticLieSuperalgebra):
        self.q = q
        self.basis = q.basis
        ne = self.basis.even_dim
        n = self.basis.dim
        even_inv = (
            inverse([[q.form.gram[i][j] for j in range(ne)] for i in range(ne)])
            if ne
            else []
        )
        odd_inv = (
            inverse(
                [
                    [q.form.gram[i][j] for j in range(ne, n)]
                    for i in range(ne, n)
                ]
            )
            if n > ne
            else []
        )
        self.pairing: dict[tuple[int, int], Rat] = {}
        for i in range(ne):
            for j in range(ne):
                if even_inv[i][j] != 0:
                    self.pairing[(i, j)] = even_inv[i][j]
        for i in range(ne, n):
            for j in range(ne, n):
                v = odd_inv[i - ne][j - ne]
                if v != 0:
                    self.pairing[(i, j)] = v
        self._memo: dict[tuple[Monomial, Monomial], Cochain] = {}

    def _single(self, i: int) -> Cochain:
        if i < self.basis.even_dim:
            m = Monomial(even=(i,), odd=())
        else:
            m = Monomial(even=(), odd=(i,))
        return Cochain.from_terms(self.basis, {m: Fraction(1)})

    def _split(self, m: Monomial) -> tuple[int, Monomial]:
        """m = (first index) wedge (rest), with no sign."""
        if m.even:
            return m.even[0], Monomial(even=m.even[1:], odd=m.odd)
        return m.odd[0], Monomial(even=(), odd=m.odd[1:])

    def _index_parity(self, i: int) -> int:
        return self.basis.parities[i]

    def monomial_bracket(self, a: Monomial, b: Monomial) -> Cochain:
        key = (a, b)
        if key in self._memo:
            return self._memo[key]
        zero = Cochain.zero(self.basis)
        if a.degree == 0 or b.degree == 0:
            out = zero
        elif a.degree == 1 and b.degree == 1:
            i, _ = self._split(a)
            j, _ = self._split(b)
            c = self.pairing.get((i, j), Fraction(0))
            out = Cochain.from_terms(
                self.basis, {Monomial(even=(), odd=()): c}
            )
        elif a.degree == 1:
            # {u, v ^ S} = {u,v} ^ S + (-1)^{<u><v>} v ^ {u, S}
            i, _ = self._split(a)
            j, rest = self._split(b)
            u_deg = (1, self._index_parity(i))
            v_deg = (1, self._index_parity(j))
            first = self.monomial_bracket(a, self._as_mono(j))
            term1 = wedge(
                first, Cochain.from_terms(self.basis, {rest: Fraction(1)})
            )
            inner = self.monomial_bracket(self._as_mono(i), rest)
            term2 = wedge(self._single(j), inner).scale(
                Fraction(koszul(u_deg, v_deg))
            )
            out = term1 + term2
        else:
            # {u ^ R, B} = (-1)^{<B><R>} {u, B} ^ R + u ^ {R, B}
            i, rest = self._split(a)
            b_deg = bidegree(b)
            r_deg = bidegree(rest)
            left = wedge(
                self.monomial_bracket(self._as_mono(i), b),
                Cochain.from_terms(self.basis, {rest: Fraction(1)}),
            ).scale(Fraction(koszul(b_deg, r_deg)))
            right = wedge(
                self._single(i), self.monomial_bracket(rest, b)
            )
            out = left + right
        self._memo[key] = out
        return out

    def _as_mono(self, i: int) -> Monomial:
        if i < self.basis.even_dim:
            return Monomial(even=(i,), odd=())
        return Monomial(even=(), odd=(i,))

    def bracket(self, a: Cochain, b: Cochain) -> Cochain:
        out = Cochain.zero(self.basis)
        for ma, ca in a.terms:
            for mb, cb in b.terms:
                out = out + self.monomial_bracket(ma, mb).scale(ca * cb)
        return out
