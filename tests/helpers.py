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
``nullspace_dense`` reads the kernel basis off it, as the engine's dense
``nullspace`` did before ``Echelon.kernel`` replaced it, and
``inverse_dense`` the inverse, as the engine's dense ``inverse`` did
before ``BilinearForm.inverse_columns`` eliminated [G^T | 1] itself.
``evaluate`` is the evaluation rule of README.md on an argument tuple
(``reorder_to_canonical`` brings the tuple to canonical order), and
``from_values`` the cochain with given values on canonical tuples, its
inverse; ``differential_by_evaluation`` needs both.
``full_differential`` is the whole delta_k, from all of C^k to all of
C^{k+1}, as the engine's ``differential_matrix`` gave it before it built
only the part of inner weight 0; the unpruned oracles read it.
``is_coboundary_full`` is the coboundary test on all of delta_{k-1},
which the engine's ``is_coboundary`` replaced by B^k on the built part
and a checked Cartan witness on the other blocks;
``is_coboundary_by_rank`` asks the same of ranks, so it shares no
echelon of B^k with the engine.
``betti_table_unpruned`` eliminates on all of each C^k, as the engine did
before it built only the blocks of inner weight 0 and counted the others.
``block_partition`` keys the monomials of C^k as the engine did before its
integer block index: ``Fraction`` sums of the diagonal weights and of each
inner-torus weight, monomial by monomial.
``block_key`` is the integer block key of one monomial, summed from the
algebra's ``_weights`` on each call, and ``built_by_filter`` the built part
of C^k with its keys as the engine made it before it enumerated the
monomials of inner weight 0 directly: all of C^k listed, each keyed, those
of inner weight 0 kept.
``contract_vector`` is the contraction with a coordinate vector, and
``alt_degree`` the alternating degree of a monomial, both once public.
``parity_of_vector``, ``coefficient``, ``form_value`` and
``derivation_column`` are the dense readers that ``GradedBasis``,
``Cochain``, ``BilinearForm`` and ``Superderivation`` once carried as
methods, when only these oracles read them.
``coordinates`` and ``from_coordinates`` map a cochain to its coordinates
in a ``CochainBasis`` and back, as that class's methods did before the
engine kept delta_k's columns and made its representatives itself.
The ``*_by_triples``/``*_by_pairs`` validators are the dense loops the
engine's bracket-table checks replaced: one ``bracket_pair`` or
``form_value`` per basis triple or pair.  They must report the same
violations, in the same order, with the same messages.
``super_jacobi_by_table_triples`` is the loop over every basis triple
that the engine's sparse super Jacobi check replaced, reading the bracket
table; ``random_table_algebra`` makes seeded tables on at most 3|3
letters, valid or not, to compare the two on.
``double_extension_dense`` is the double extension the engine's sparse
constructor replaced: every pair of the new basis through a six-branch
bracket of dense ``derivation_column``/``bracket_pair``/``form_value`` calls.  The
two must give the same basis, structure constants and Gram matrix.
``check_commuting_dependence`` and ``check_eigenvector_relation`` are the
paper's lemmas on traceless 2x2 matrices, checked by acceptance C10.
"""
from __future__ import annotations

import random
from fractions import Fraction

from superquad import BilinearForm, LieSuperalgebra, QuadraticLieSuperalgebra, build
from superquad.algebra import GradedBasis, Violation, _sparse_str, diagonal_weights, inner_torus
from superquad.cochains import (
    Cochain,
    Monomial,
    _check_cochain,
    _cochain,
    _combination,
    _contractions,
    differential_direct,
    differential_via_poisson,
    monomials_of_degree,
    wedge,
)
from superquad.cohomology import CochainBasis, CohomologyResult, DifferentialMatrix, _Quotient, cochain_basis
from superquad.errors import EngineError, InputError
from superquad.extensions import (
    ExtensionDatum,
    Superderivation,
    _extension_labels,
    _grading_violations,
    validate_extension_datum,
)
from superquad.linalg import Echelon, Rat, _sparse_rows, rank, rat, reduced_kernel
from superquad.quadratic import validate_quadratic
from superquad.sp2 import Sp2Element, classify, commutator

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
    return (m.degree, m.sym_degree % 2)


def alt_degree(m: Monomial) -> int:
    return len(m.even)


def parity_of_vector(basis: GradedBasis, v) -> int | None:
    """Parity of a homogeneous coordinate vector, None if mixed or zero."""
    parities = {basis.parities[i] for i, c in enumerate(v) if c != 0}
    return parities.pop() if len(parities) == 1 else None


def coefficient(c: Cochain, m: Monomial) -> Rat:
    """The coefficient of m in c, 0 when m is no term of c."""
    return next((x for mm, x in c.terms if mm == m), Fraction(0))


def form_value(form: BilinearForm, x, y) -> Rat:
    """B(x, y) of two dense coordinate vectors, read off the Gram matrix."""
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi:
            total += xi * sum(form.gram[i][j] * yj for j, yj in enumerate(y) if yj)
    return total


def derivation_column(d: Superderivation, j: int) -> list[Rat]:
    """D e_j as a dense coordinate vector."""
    return [row[j] for row in d.matrix]


def contract_vector(c: Cochain, vector) -> Cochain:
    """Contraction with a parity-homogeneous coordinate vector."""
    _check_cochain(c, None)
    if not isinstance(vector, (list, tuple)):
        raise InputError("contraction vector must be a list or tuple")
    v = [rat(x) for x in vector]
    if len(v) != c.basis.dim:
        raise InputError("contraction vector has the wrong length")
    parity = parity_of_vector(c.basis, v)
    if parity is None and any(x != 0 for x in v):
        raise InputError("contraction vector must be parity-homogeneous")
    contractions = _contractions(c.terms)
    return _cochain(c.basis, _combination((x, contractions.get(i, {})) for i, x in enumerate(v)))


def koszul(d1: tuple[int, int], d2: tuple[int, int]) -> int:
    return -1 if (d1[0] * d2[0] + d1[1] * d2[1]) % 2 else 1


def reorder_to_canonical(
    parities, args
) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """Sort an argument index tuple into (evens | odds) canonical order.

    Returns (even_part strictly increasing, odd_part weakly increasing,
    sign) where sign tracks adjacent transpositions, each contributing
    -(-1)^{xy}.  Returns None when an even index repeats (alternating
    slots annihilate).

    The sign bookkeeping splits cleanly: swaps among evens and between
    an even and an odd contribute -1 each; swaps among odds contribute
    +1.  So sign = (-1)^{#inversions not involving two odd indices}.
    """
    evens = [i for i in args if parities[i] == 0]
    odds = [i for i in args if parities[i] == 1]
    # moving all odds to the right past later evens: count (odd, even) pairs
    inversions = 0
    seen_odds = 0
    for i in args:
        if parities[i] == 1:
            seen_odds += 1
        else:
            inversions += seen_odds
    # sort evens, counting inversions (bubble count = inversions of the list)
    sign = -1 if inversions % 2 else 1
    for i in range(len(evens)):
        for j in range(i + 1, len(evens)):
            if evens[i] > evens[j]:
                sign = -sign
            elif evens[i] == evens[j]:
                return None
    return tuple(sorted(evens)), tuple(sorted(odds)), sign


def evaluate(c: Cochain, args) -> Rat:
    """Evaluate on a tuple of basis-vector indices.

    Degree-k terms pair with k arguments; terms of other degrees
    contribute zero.  A canonical-tuple evaluation of a monomial is
    coefficient * mult_factor on itself and 0 on any other monomial.
    """
    canonical = reorder_to_canonical(c.basis.parities, args)
    if canonical is None:
        return Fraction(0)
    even, odd, sign = canonical
    target = Monomial(even=even, odd=odd)
    value = coefficient(c, target)
    if value == 0:
        return Fraction(0)
    return sign * value * target.mult_factor()


def from_values(basis, k: int, value_fn) -> Cochain:
    """The degree-k cochain with the values ``value_fn`` gives on the
    canonical tuples (the inverse of ``evaluate``)."""
    terms: dict[Monomial, Rat] = {}
    for m in monomials_of_degree(basis, k):
        v = value_fn(m.even + m.odd)
        if v != 0:
            terms[m] = Fraction(v, m.mult_factor())
    return Cochain.from_terms(basis, terms)


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
    cocycles = nullspace_dense([list(r) for r in d_k.entries], d_k.shape[1])
    span = [list(col) for col in zip(*d_prev.entries)] if d_prev is not None else []
    current = rank(span) if span else 0
    reps: list[list[Rat]] = []
    for v in rref_dense(cocycles)[0]:
        candidate = span + [list(v)]
        r = rank(candidate)
        if r > current:
            reps.append(v)
            span = candidate
            current = r
    return reps


def coordinates(cb: CochainBasis, c: Cochain) -> dict[int, Rat]:
    """c as {position in cb: coefficient}; InputError for a term outside cb."""
    idx, vec = cb._index, {}
    for m, coeff in c.terms:
        if m not in idx:
            raise InputError(f"cochain term {m} does not live in C^{cb.degree}")
        vec[idx[m]] = coeff
    return vec


def from_coordinates(cb: CochainBasis, basis: GradedBasis, vec: dict[int, Rat]) -> Cochain:
    """The cochain over ``basis`` with coordinates ``vec`` in cb;
    InputError for a position outside cb."""
    if any(not 0 <= i < len(cb.monomials) for i in vec):
        raise InputError("coordinate index out of range")
    return Cochain.from_terms(basis, {cb.monomials[i]: x for i, x in vec.items()})


def full_differential(q, k: int, *, verify: bool = True) -> DifferentialMatrix:
    """The whole delta_k: differential_direct of every monomial of C^k,
    each checked against -{I, monomial} when q is quadratic and ``verify``
    is true."""
    g = getattr(q, "algebra", q)
    src, tgt, poisson = cochain_basis(g, k), cochain_basis(g, k + 1), verify and g is not q
    columns = []
    for m in src.monomials:
        c = Cochain.from_terms(g.basis, {m: Fraction(1)})
        image = differential_direct(g, c)
        assert not poisson or image == differential_via_poisson(q, c), (k, m)
        columns.append(coordinates(tgt, image))
    return DifferentialMatrix(src, tgt, tuple(columns))


def betti_table_unpruned(q, k_max: int, *, verify: bool = True) -> list[CohomologyResult]:
    """H^0..H^{k_max}, each delta_k built and eliminated on all of C^k."""
    deltas = [full_differential(q, k, verify=verify) for k in range(k_max + 1)]
    out = []
    for k, d_k in enumerate(deltas):
        src = d_k.source
        rows: dict[int, dict[int, Rat]] = {}
        for j, col in enumerate(d_k.columns):
            for i, x in col.items():
                rows.setdefault(i, {})[j] = x
        cocycles = reduced_kernel(list(rows.values()), src.dimension)
        # B^k eliminated here, from the whole delta_{k-1}, not read off the complex
        quotient = _Quotient(src.dimension, Echelon(_sparse_rows(deltas[k - 1].columns)) if k else None)
        reps = [v for v in cocycles if quotient.add_cocycle(v)]
        n_z, n_b = len(cocycles), len(quotient.boundary.rows)
        assert src.dimension == rank(d_k.columns) + n_z and n_b + len(reps) <= n_z
        out.append(
            CohomologyResult(
                degree=k,
                dim_cochains=src.dimension,
                dim_cocycles=n_z,
                dim_coboundaries=n_b,
                betti=n_z - n_b,
                representatives=tuple(from_coordinates(src, q.basis, v) for v in reps),
            )
        )
    return out


def block_partition(q, k: int) -> tuple[set[frozenset[Monomial]], tuple[Monomial, ...]]:
    """The blocks of C^k and the part delta_k is built on.  A monomial's
    block is the Fraction sums of its letters' ``diagonal_weights`` with
    the parity sum taken mod 2; it is built when its inner weight, the
    Fraction sum of its letters' w, is 0 for every (x, w) of
    ``inner_torus`` (so every monomial is, without an inner torus)."""
    g = getattr(q, "algebra", q)
    weights, torus = diagonal_weights(g), inner_torus(g)
    blocks: dict[tuple, set[Monomial]] = {}
    built = []
    for m in monomials_of_degree(g.basis, k):
        letters = m.even + m.odd
        *lam, odd = (sum((weights[t][i] for t in letters), Fraction(0)) for i in range(len(weights[0])))
        blocks.setdefault((*lam, odd % 2), set()).add(m)
        if not any(sum((w[t] for t in letters), Fraction(0)) for _, w in torus):
            built.append(m)
    return {frozenset(b) for b in blocks.values()}, tuple(built)


def block_key(cx, m: Monomial) -> tuple[int, ...]:
    """The block key of m in the complex ``cx``: the sums of its letters'
    ``_weights`` (kept on cx's algebra), the last one (its odd letters)
    taken mod 2."""
    weights = cx.algebra._weights
    zero = (0,) * len(weights[0])  # the key of 1, so an empty monomial sums too
    *lam, odd = map(sum, zip(zero, *map(weights.__getitem__, m.even + m.odd)))
    return (*lam, odd % 2)


def built_by_filter(cx, k: int) -> dict[Monomial, tuple[int, ...]]:
    """The monomials of C^k of inner weight 0 (the torus entries of
    ``block_key``), in basis order, each with its key."""
    s = len(cx.algebra._torus)
    keys = {m: block_key(cx, m) for m in monomials_of_degree(cx.basis, k)}
    return {m: key for m, key in keys.items() if not any(key[-1 - s : -1])}


def is_coboundary_full(q, c: Cochain) -> bool:
    """True iff c = delta(b): c reduced against the columns of the whole
    delta_{k-1} (c nonzero and of one degree k)."""
    degrees = {m.degree for m, _ in c.terms}
    assert len(degrees) == 1, "the oracle takes a nonzero cochain of one degree"
    k = degrees.pop()
    if k == 0:
        return False
    d_prev = full_differential(q, k - 1, verify=False)
    return not Echelon(_sparse_rows(d_prev.columns)).remainder(coordinates(d_prev.target, c))


def is_coboundary_by_rank(q, c: Cochain) -> bool:
    """True iff c = delta(b): c appended to the columns of the whole
    delta_{k-1} leaves their rank unchanged (c nonzero and of one degree
    k)."""
    degrees = {m.degree for m, _ in c.terms}
    assert len(degrees) == 1, "the oracle takes a nonzero cochain of one degree"
    k = degrees.pop()
    if k == 0:
        return False
    d_prev = full_differential(q, k - 1, verify=False)
    columns = list(d_prev.columns)
    return rank(columns + [coordinates(d_prev.target, c)]) == rank(columns)


def mat_mul(a, b) -> list[list[Rat]]:
    """The dense matrix product a b."""
    assert not (a and b) or len(a[0]) == len(b), "matrix product shape mismatch"
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


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


def nullspace_dense(m, cols: int) -> list[list[Rat]]:
    """Reference right-kernel basis read off ``rref_dense``: one vector per
    free column f, ascending, 1 at f and minus R[i][f] at pivot i."""
    reduced, pivots = rref_dense(m)
    basis = []
    for free in (f for f in range(cols) if f not in pivots):
        v = [Fraction(int(j == free)) for j in range(cols)]
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def inverse_dense(m) -> list[list[Rat]]:
    """Reference inverse of a square matrix, read off ``rref_dense`` of
    [m | 1]; InputError when m is singular."""
    n = len(m)
    reduced, pivots = rref_dense([list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)])
    if pivots[:n] != list(range(n)):
        raise InputError("matrix is singular")
    return [row[n:] for row in reduced]


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
            inverse_dense([[q.form.gram[i][j] for j in range(ne)] for i in range(ne)])
            if ne
            else []
        )
        odd_inv = (
            inverse_dense(
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


def perturbed(key: str, rng: random.Random) -> QuadraticLieSuperalgebra:
    """Catalog algebra with one structure constant and one Gram entry moved.

    The constant may land on any target, so the grading or the skew rule
    can break; the Gram entry moves without its partner and may pair
    opposite parities, so the form can stop being even or supersymmetric.
    A Lie-only key gets the identity Gram matrix before the move.
    """
    obj = build(key)
    g = obj.algebra if isinstance(obj, QuadraticLieSuperalgebra) else obj
    n = g.dim
    i, j = sorted((rng.randrange(n), rng.randrange(n)))
    k = rng.randrange(n)
    step = Fraction(rng.choice((-2, -1, 1, 2, 3))) / rng.choice((1, 2))
    constants = {pair: dict(terms) for pair, terms in g.constants.items()}
    entry = constants.setdefault((i, j), {})
    entry[k] = entry.get(k, Fraction(0)) + step
    if not entry[k]:
        del entry[k]
    if not entry:
        del constants[i, j]
    algebra = LieSuperalgebra(basis=g.basis, constants=constants, name=g.name)
    if isinstance(obj, QuadraticLieSuperalgebra):
        gram = [list(row) for row in obj.form.gram]
    else:
        gram = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    r, c = rng.randrange(n), rng.randrange(n)
    gram[r][c] += Fraction(rng.choice((-1, 1, 2)))
    form = BilinearForm(basis=g.basis, gram=tuple(map(tuple, gram)))
    return QuadraticLieSuperalgebra(algebra=algebra, form=form)


def _double_bracket(g: LieSuperalgebra, i: int, j: int, k: int) -> dict[int, Rat]:
    """[[e_i, e_j], e_k] as a sparse map."""
    out: dict[int, Rat] = {}
    for m, c in g.bracket_pair(i, j).items():
        for t, d in g.bracket_pair(m, k).items():
            val = out.get(t, Fraction(0)) + c * d
            if val:
                out[t] = val
            elif t in out:
                del out[t]
    return out


def super_jacobi_by_triples(g: LieSuperalgebra) -> list[Violation]:
    """Cyclic super Jacobi identity, two bracket_pair calls per term."""
    out: list[Violation] = []
    n = g.dim
    p = g.basis.parities
    labels = g.basis.labels
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                acc: dict[int, Rat] = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    sign = Fraction(-1) ** (p[c] * p[a])
                    for t, val in _double_bracket(g, a, b, c).items():
                        new = acc.get(t, Fraction(0)) + sign * val
                        if new:
                            acc[t] = new
                        elif t in acc:
                            del acc[t]
                if acc:
                    out.append(
                        Violation(
                            rule="jacobi",
                            witness=(labels[i], labels[j], labels[k]),
                            message=(
                                f"super Jacobi fails on ({labels[i]}, {labels[j]}, "
                                f"{labels[k]}): residual {_sparse_str(g, acc)}"
                            ),
                        )
                    )
    return out


def super_jacobi_by_table_triples(g: LieSuperalgebra) -> list[Violation]:
    """Cyclic super Jacobi identity on every basis triple i <= j <= k, each
    double bracket read from one bracket table."""
    out: list[Violation] = []
    n = g.dim
    p = g.basis.parities
    labels = g.basis.labels
    table = g.bracket_table
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                acc: dict[int, Rat] = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    negate = p[c] and p[a]
                    for m, x in table.get((a, b), {}).items():
                        for t, y in table.get((m, c), {}).items():
                            acc[t] = acc.get(t, 0) + (-x * y if negate else x * y)
                residual = {t: v for t, v in acc.items() if v}
                if residual:
                    out.append(
                        Violation(
                            rule="jacobi",
                            witness=(labels[i], labels[j], labels[k]),
                            message=(
                                f"super Jacobi fails on ({labels[i]}, {labels[j]}, "
                                f"{labels[k]}): residual {_sparse_str(g, residual)}"
                            ),
                        )
                    )
    return out


def count_validator_passes(monkeypatch) -> dict[str, list[int]]:
    """From now on, the dimension of each algebra that super Jacobi
    (``"jacobi"``) or the form axioms (``"form"``) are checked on."""
    import superquad.algebra as algebra_module
    import superquad.quadratic as quadratic_module

    passes: dict[str, list[int]] = {"jacobi": [], "form": []}
    jacobi, form = algebra_module.validate_super_jacobi, quadratic_module.validate_form
    monkeypatch.setattr(
        algebra_module, "validate_super_jacobi", lambda g: passes["jacobi"].append(g.dim) or jacobi(g)
    )
    monkeypatch.setattr(
        quadratic_module, "validate_form", lambda g, b: passes["form"].append(g.dim) or form(g, b)
    )
    return passes


def random_table_algebra(rng: random.Random) -> LieSuperalgebra:
    """A seeded random bracket table on at most 3|3 letters: each pair i <= j
    gets, with a random chance, one to three terms on any targets, so the
    grading and super Jacobi may hold or fail."""
    ne, no = rng.randint(0, 3), rng.randint(0, 3)
    if ne + no == 0:
        ne = 1
    n = ne + no
    basis = GradedBasis(
        labels=tuple(f"x{t}" for t in range(n)), parities=(0,) * ne + (1,) * no
    )
    density = rng.choice((0.1, 0.25, 0.5))
    constants = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density:
                constants[i, j] = {
                    rng.randrange(n): Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 1, 2)))
                    for _ in range(rng.randint(1, 3))
                }
    return LieSuperalgebra(basis=basis, constants=constants)


def validate_form_by_triples(g: LieSuperalgebra, form: BilinearForm) -> list[Violation]:
    """Evenness, supersymmetry, invariance on every basis triple, rank."""
    out: list[Violation] = []
    basis = g.basis
    n = basis.dim
    p = basis.parities
    labels = basis.labels
    gram = form.gram
    for i in range(n):
        for j in range(i, n):
            if p[i] != p[j] and gram[i][j] != 0:
                out.append(
                    Violation(
                        rule="even",
                        witness=(labels[i], labels[j]),
                        message=f"B({labels[i]}, {labels[j]}) pairs opposite parities but is nonzero",
                    )
                )
            sign = Fraction(-1) ** (p[i] * p[j])
            if gram[j][i] != sign * gram[i][j]:
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
    for i in range(n):
        for j in range(n):
            bij = g.bracket_pair(i, j)
            for k in range(n):
                left = sum((c * gram[t][k] for t, c in bij.items()), Fraction(0))
                right = sum(
                    (c * gram[i][t] for t, c in g.bracket_pair(j, k).items()), Fraction(0)
                )
                if left != right:
                    out.append(
                        Violation(
                            rule="invariance",
                            witness=(labels[i], labels[j], labels[k]),
                            message=(
                                f"B([{labels[i]}, {labels[j]}], {labels[k]}) = {left} but "
                                f"B({labels[i]}, [{labels[j]}, {labels[k]}]) = {right}"
                            ),
                        )
                    )
    if rank([list(row) for row in gram]) != n:
        out.append(
            Violation(
                rule="nondegenerate",
                witness=(),
                message=f"Gram matrix has rank {rank([list(r) for r in gram])} < {n}",
            )
        )
    return out


def superderivation_by_pairs(g: LieSuperalgebra, d: Superderivation) -> list[Violation]:
    """Grading, then D[X,Y] = [DX,Y] + (-1)^{alpha x}[X,DY] on dense vectors."""
    basis = g.basis
    degree = d.degree
    violations = _grading_violations(basis, d.matrix, degree)
    for i in range(basis.dim):
        for j in range(i, basis.dim):
            x = basis.parities[i]
            lhs = [Fraction(0)] * basis.dim
            for t, c in g.bracket_pair(i, j).items():
                col = derivation_column(d, t)
                for r in range(basis.dim):
                    lhs[r] += c * col[r]
            rhs = g.bracket(derivation_column(d, i), g.basis_vector(j))
            sign = -1 if (degree * x) % 2 else 1
            second = g.bracket(g.basis_vector(i), derivation_column(d, j))
            rhs = [rhs[r] + sign * second[r] for r in range(basis.dim)]
            if lhs != rhs:
                violations.append(
                    Violation(
                        rule="superderivation-leibniz",
                        witness=(basis.labels[i], basis.labels[j]),
                        message=(
                            f"D[{basis.labels[i]},{basis.labels[j]}] != "
                            f"[D{basis.labels[i]},{basis.labels[j]}] + "
                            f"(-1)^(alpha.x)[{basis.labels[i]},D{basis.labels[j]}]"
                        ),
                    )
                )
    return violations


def skew_superderivation_by_pairs(
    q: QuadraticLieSuperalgebra, d: Superderivation
) -> list[Violation]:
    """Superderivation oracle, then B(DX,Y) = -(-1)^{alpha x} B(X,DY) by form_value."""
    violations = superderivation_by_pairs(q.algebra, d)
    basis = q.basis
    for i in range(basis.dim):
        x = basis.parities[i]
        sign = -1 if (d.degree * x) % 2 else 1
        for j in range(basis.dim):
            lhs = form_value(q.form, derivation_column(d, i), q.algebra.basis_vector(j))
            rhs = form_value(q.form, q.algebra.basis_vector(i), derivation_column(d, j))
            if lhs != -sign * rhs:
                violations.append(
                    Violation(
                        rule="skew-supersymmetry-of-derivation",
                        witness=(basis.labels[i], basis.labels[j]),
                        message=(
                            f"B(D{basis.labels[i]},{basis.labels[j]}) != "
                            f"-(-1)^(alpha.x) B({basis.labels[i]},D{basis.labels[j]})"
                        ),
                    )
                )
    return violations


def double_extension_dense(d: ExtensionDatum) -> QuadraticLieSuperalgebra:
    """The quadratic Lie superalgebra on h (+) g (+) h*.

    Bracket (x, y the parities of the homogeneous arguments):

      [Z+X+f, W+Y+g] = [Z,W]_h + [X,Y]_g + psi(Z)(Y) - (-1)^{xy} psi(W)(X)
                       + pi(Z)(g) - (-1)^{xy} pi(W)(f) + phi(X,Y),
      phi(X,Y)(Z) = (-1)^{(x+y)z} B(psi(Z)(X), Y),
      (pi(Z)g)(W) = -(-1)^{zg} g([Z,W]_h)   (coadjoint action),

    and form  B~(Z+X+f, W+Y+g) = B(X,Y) + gamma(Z,W) + f(W) + (-1)^{xy} g(Z).
    The datum is validated first; the output is validated afterwards, and a
    failure there is an internal error, since a valid datum always yields a
    valid quadratic structure.
    """
    report = validate_extension_datum(d)
    if not report.ok:
        first = report.violations[0]
        raise InputError(
            f"extension datum invalid: {first.rule} at {first.witness}: "
            f"{first.message}"
        )
    base, h = d.base, d.h
    nh, ng = h.basis.dim, base.basis.dim
    h_labels, g_labels, dual_labels = _extension_labels(d)
    parities = (
        list(h.basis.parities) + list(base.basis.parities) + list(h.basis.parities)
    )
    labels = h_labels + g_labels + dual_labels
    # sort into evens-then-odds while remembering original positions
    order = sorted(range(len(labels)), key=lambda t: (parities[t], t))
    new_labels = tuple(labels[t] for t in order)
    new_parities = tuple(parities[t] for t in order)
    new_basis = GradedBasis(labels=new_labels, parities=new_parities)
    position = {t: k for k, t in enumerate(order)}  # old index -> new index

    def old_parity(t: int) -> int:
        return parities[t]

    def bracket_old(i: int, j: int) -> dict[int, Rat]:
        """Bracket of old-indexed basis vectors, result in old indices."""
        x, y = old_parity(i), old_parity(j)
        sign_xy = -1 if (x * y) % 2 else 1
        out: dict[int, Rat] = {}

        def add(t: int, v: Rat) -> None:
            if v == 0:
                return
            out[t] = out.get(t, Fraction(0)) + v
            if out[t] == 0:
                del out[t]

        in_h = lambda t: t < nh
        in_g = lambda t: nh <= t < nh + ng
        in_dual = lambda t: t >= nh + ng
        if in_h(i) and in_h(j):
            for t, c in h.bracket_pair(i, j).items():
                add(t, c)
        elif in_h(i) and in_g(j):
            col = derivation_column(d.psi[i], j - nh)
            for r in range(ng):
                add(nh + r, col[r])
        elif in_g(i) and in_h(j):
            col = derivation_column(d.psi[j], i - nh)
            for r in range(ng):
                add(nh + r, Fraction(-sign_xy) * col[r])
        elif in_h(i) and in_dual(j):
            # pi(Z)(g) with Z = e_i, g = dual_j: result in h*
            gp = old_parity(j)
            sign = -1 if (old_parity(i) * gp) % 2 else 1
            for w in range(nh):
                c = h.bracket_pair(i, w).get(j - nh - ng, Fraction(0))
                add(nh + ng + w, Fraction(-sign) * c)
        elif in_dual(i) and in_h(j):
            fp = old_parity(i)
            sign_pi = -1 if (old_parity(j) * fp) % 2 else 1
            for w in range(nh):
                c = h.bracket_pair(j, w).get(i - nh - ng, Fraction(0))
                add(nh + ng + w, Fraction(sign_xy) * Fraction(sign_pi) * c)
        elif in_g(i) and in_g(j):
            for t, c in base.algebra.bracket_pair(i - nh, j - nh).items():
                add(nh + t, c)
            # phi(X,Y)(Z_k) = (-1)^{(x+y)z} B(psi(Z_k)(X), Y)
            for k in range(nh):
                z = h.basis.parities[k]
                sign = -1 if ((x + y) * z) % 2 else 1
                val = form_value(
                    base.form, derivation_column(d.psi[k], i - nh), base.algebra.basis_vector(j - nh)
                )
                add(nh + ng + k, Fraction(sign) * val)
        # g with h*, h* with h*, and anything else: zero
        return out

    table: list[tuple[int, int, dict[int, Rat]]] = []
    total = nh + ng + nh
    for inew in range(total):
        for jnew in range(inew, total):
            iold = order[inew]
            jold = order[jnew]
            br = bracket_old(iold, jold)
            if br:
                table.append(
                    (inew, jnew, {position[t]: v for t, v in br.items()})
                )
    algebra = LieSuperalgebra.from_index_table(new_basis, table)
    # the extended form
    gram = [[Fraction(0)] * total for _ in range(total)]
    for inew in range(total):
        for jnew in range(total):
            i, j = order[inew], order[jnew]
            x, y = old_parity(i), old_parity(j)
            v = Fraction(0)
            if i < nh and j < nh:
                v = d.gamma.gram[i][j] if d.gamma is not None else Fraction(0)
            elif nh <= i < nh + ng and nh <= j < nh + ng:
                v = base.form.gram[i - nh][j - nh]
            elif i >= nh + ng and j < nh:
                # f(W)
                v = Fraction(1) if i - nh - ng == j else Fraction(0)
            elif i < nh and j >= nh + ng:
                sign = -1 if (x * y) % 2 else 1
                v = Fraction(sign) if j - nh - ng == i else Fraction(0)
            gram[inew][jnew] = v
    form = BilinearForm(basis=new_basis, gram=tuple(tuple(r) for r in gram))
    out = QuadraticLieSuperalgebra(algebra=algebra, form=form)
    check = validate_quadratic(out)
    if not check.ok:
        first = check.violations[0]
        raise EngineError(
            "double extension of a valid datum failed validation: "
            f"{first.rule} at {first.witness}: {first.message}"
        )
    return out


def check_commuting_dependence(m1: Sp2Element, m2: Sp2Element) -> tuple[Rat, Rat]:
    """A dependence certificate (mu, nu) != (0,0) with mu*A + nu*B = 0.

    Requires [A, B] = 0; commuting traceless 2x2 matrices are linearly
    dependent, so a certificate always exists.
    """
    if not commutator(m1, m2).is_zero:
        raise InputError("dependence certificate requires [A, B] = 0")
    if m1.is_zero:
        return (Fraction(1), Fraction(0))
    if m2.is_zero:
        return (Fraction(0), Fraction(1))
    # find a coordinate where m1 is non-zero and scale m2 against it
    for x1, x2 in ((m1.a, m2.a), (m1.b, m2.b), (m1.c, m2.c)):
        if x1 != 0:
            t = Fraction(x2, x1)
            if (m2 - m1.scale(t)).is_zero:
                return (t, Fraction(-1))
            raise EngineError(
                "commuting non-zero traceless 2x2 matrices must be "
                "linearly dependent; found a counterexample"
            )
    raise EngineError("non-zero element with all coordinates zero")


def check_eigenvector_relation(m1: Sp2Element, m2: Sp2Element) -> tuple[bool, bool]:
    """Flags (discriminant(A) == 1/4, B nilpotent) for [A, B] = B, B != 0."""
    if m2.is_zero:
        raise InputError("eigenvector relation requires B != 0")
    if commutator(m1, m2) != m2:
        raise InputError("eigenvector relation requires [A, B] = B")
    tag, _ = classify(m2)
    return (m1.discriminant == Fraction(1, 4), tag == "nilpotent")
