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
``enumerate_by_degree`` lists the monomials of C^k, with their block keys,
as the engine did before each complex kept its even and odd tables: every
even subset and odd multiset listed again for each degree.
``wedge_into``, ``merge_even``, ``contractions_by_tuples``,
``delta_by_tuples`` and ``poisson_by_tuples`` (with
``dual_differentials_by_tuples`` and ``poisson_left_by_tuples``, their
tables) are the kernels on ``Monomial`` tuples that the engine's packed
kernels replaced: sorted merges of the parts and a count of the shuffle's
inversions.  The packed kernels must give the same dictionaries.
``contract_vector`` is the contraction with a coordinate vector, and
``alt_degree`` the alternating degree of a monomial, both once public.
``parity_of_vector``, ``coefficient``, ``form_value`` and
``derivation_column`` are the dense readers that ``GradedBasis``,
``Cochain``, ``BilinearForm`` and ``Superderivation`` once carried as
methods, when only these oracles read them.
``basis_vector`` and ``bracket`` are the dense coordinate vectors and
their bracket that ``LieSuperalgebra`` once carried as methods;
``derived_series_dense`` is the derived series on them, as the engine
built it before it bracketed sparse rows through the bracket table, and
``grading_violations_dense`` the grading rule of a superderivation read
off its dense matrix, as the engine ran it before a derivation kept only
its nonzero columns.
``coordinates`` and ``from_coordinates`` map a cochain to its coordinates
in a ``CochainBasis`` and back, as that class's methods did before the
engine kept delta_k's columns and made its representatives itself.
The ``*_by_triples``/``*_by_pairs`` validators are the dense loops the
engine's bracket-table checks replaced: one ``bracket_pair`` or
``form_value`` per basis triple or pair.  They must report the same
violations, in the same order, with the same messages.
``validate_form_by_union_walk`` is the form check as the engine ran it
before it compared the two sides of invariance as triple-keyed dicts: both
sides summed from B's rows and columns, then one walk over the sorted union
of their triples.  The two must report the same violations, in the same
order, with the same messages.  Its evenness and supersymmetry rules are
``form_pairs_dense``, the walk over every pair i <= j that the engine ran
before it walked only the pairs with a nonzero entry.  ``dense_gram`` is a
form's n x n Gram matrix, which ``BilinearForm`` once kept as a field, and
``gram_form`` the form of a given Gram matrix.
``skew_superderivation_space_unpruned`` is the reduced kernel of the whole
defect system, every row and every entry kept, as the engine eliminated it
before it dropped the entries pinned by one-term rows and the repeated rows.
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

import itertools
import math
import random
from collections.abc import Iterable
from fractions import Fraction

from superquad import BilinearForm, LieSuperalgebra, QuadraticLieSuperalgebra, build
from superquad.algebra import GradedBasis, Subspace, Violation, _sparse_str, diagonal_weights, inner_torus
from superquad.cochains import (
    DEGREE_LIMIT,
    Cochain,
    Monomial,
    _check_cochain,
    _combination,
    _monomial,
    _unit,
    _unpack,
    differential_direct,
    differential_via_poisson,
    monomials_of_degree,
    wedge,
)
from superquad.cohomology import CochainBasis, CohomologyResult, DifferentialMatrix, _Quotient, cochain_basis
from superquad.errors import EngineError, InputError, ResourceLimitError
from superquad.extensions import (
    ExtensionDatum,
    Superderivation,
    _extension_labels,
    validate_extension_datum,
)
from superquad.linalg import Echelon, Rat, _combine, _num, _sparse_rows, rank, rat, reduced_kernel
from superquad.quadratic import _require_quadratic, validate_quadratic
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


def dense_gram(form: BilinearForm) -> tuple[tuple[Fraction, ...], ...]:
    """The n x n Gram matrix of form, every entry a Fraction."""
    n = form.basis.dim
    return tuple(tuple(Fraction(row.get(j, 0)) for j in range(n)) for row in form.rows)


def gram_form(basis: GradedBasis, gram) -> BilinearForm:
    """The form on basis whose Gram matrix is gram, n rows of n values."""
    return BilinearForm(basis, [dict(enumerate(row)) for row in gram])


def doubled_odd_form(key: str = "g_4_1_s") -> QuadraticLieSuperalgebra:
    """A catalog algebra with its odd Gram block doubled: the form stays
    non-degenerate and supersymmetric but is no longer invariant."""
    q = build(key)
    p = q.basis.parities
    gram = tuple(
        tuple(2 * x if p[i] and p[j] else x for j, x in enumerate(row))
        for i, row in enumerate(dense_gram(q.form))
    )
    return QuadraticLieSuperalgebra(q.algebra, gram_form(q.basis, gram))


def mono(q_or_basis, even_labels=(), odd_labels=(), coeff=1) -> Cochain:
    """Cochain with a single monomial given by basis labels."""
    basis = getattr(q_or_basis, "basis", q_or_basis)
    even = tuple(basis.index(lab) for lab in even_labels)
    odd = tuple(basis.index(lab) for lab in odd_labels)
    m = Monomial(even=even, odd=odd)
    return Cochain.from_terms(basis, {m: Fraction(coeff)})


def bidegree(m: Monomial) -> tuple[int, int]:
    """Z x Z2 bidegree (total degree, parity of the symmetric degree)."""
    return (m.degree, sym_degree(m) % 2)


def alt_degree(m: Monomial) -> int:
    return len(m.even)


def sym_degree(m: Monomial) -> int:
    """The symmetric degree of m: its number of odd letters."""
    return len(m.odd)


def mult_factor(m: Monomial) -> int:
    """prod over distinct odd indices of (multiplicity)!: the value of m on
    its canonical argument tuple."""
    return math.prod(math.factorial(len(list(run))) for _, run in itertools.groupby(m.odd))


def parity_of_vector(basis: GradedBasis, v) -> int | None:
    """Parity of a homogeneous coordinate vector, None if mixed or zero."""
    parities = {basis.parities[i] for i, c in enumerate(v) if c != 0}
    return parities.pop() if len(parities) == 1 else None


def coefficient(c: Cochain, m: Monomial) -> Rat:
    """The coefficient of m in c, 0 when m is no term of c."""
    return next((x for mm, x in c.terms if mm == m), Fraction(0))


def form_value(form: BilinearForm, x, y) -> Rat:
    """B(x, y) of two dense coordinate vectors, read off the Gram matrix."""
    total, gram = Fraction(0), dense_gram(form)
    for i, xi in enumerate(x):
        if xi:
            total += xi * sum(gram[i][j] * yj for j, yj in enumerate(y) if yj)
    return total


def derivation_column(d: Superderivation, j: int) -> list[Rat]:
    """D e_j as a dense coordinate vector."""
    return [row[j] for row in d.matrix]


def basis_vector(g: LieSuperalgebra, i: int) -> list[Rat]:
    """e_i as a dense coordinate vector."""
    v = [Fraction(0)] * g.dim
    v[i] = Fraction(1)
    return v


def bracket(g: LieSuperalgebra, x, y) -> list[Rat]:
    """[x, y] of two dense coordinate vectors, one ``bracket_pair`` per pair
    of nonzero coordinates."""
    out = [Fraction(0)] * g.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            for k, c in g.bracket_pair(i, j).items():
                out[k] += xi * yj * c
    return out


def derived_series_dense(g: LieSuperalgebra) -> list[Subspace]:
    """The derived series from dense vectors: each term the span of ``bracket``
    of every pair of the last term's rows, through ``Subspace.from_vectors``."""
    current = Subspace.from_vectors(g.basis, [basis_vector(g, i) for i in range(g.dim)])
    series = [current]
    for _ in range(g.dim + 1):
        nxt = Subspace.from_vectors(g.basis, [bracket(g, a, b) for a in current.rows for b in current.rows])
        series.append(nxt)
        if nxt.dim == current.dim or nxt.dim == 0:
            break
        current = nxt
    return series


def grading_violations_dense(basis: GradedBasis, matrix, degree: int) -> list[Violation]:
    """The grading rule of a superderivation on its dense matrix: one
    violation per nonzero entry (i, j) with parity(i) != parity(j) + degree,
    column by column."""
    out: list[Violation] = []
    for j in range(basis.dim):
        for i in range(basis.dim):
            if not matrix[i][j]:
                continue
            if basis.parities[i] != (basis.parities[j] + degree) % 2:
                out.append(
                    Violation(
                        rule="superderivation-grading",
                        witness=(basis.labels[i], basis.labels[j]),
                        message=(
                            f"entry ({i},{j}) maps parity {basis.parities[j]} "
                            f"into parity {basis.parities[i]}, but the degree "
                            f"is {degree}"
                        ),
                    )
                )
    return out


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
    contractions = contractions_by_tuples(c.terms)
    return Cochain.from_terms(c.basis, _combination((x, contractions.get(i, {})) for i, x in enumerate(v)))


def wedge_into(
    acc: dict[Monomial, Rat],
    terms1: Iterable[tuple[Monomial, Rat]],
    terms2: Iterable[tuple[Monomial, Rat]],
    sign: int,
) -> None:
    """acc += sign * (terms1 ^ terms2) for a sign of +1 or -1, merged term
    by term.

    On monomials
    (E (x) O) ^ (E' (x) O') = sgn * merge(E, E') (x) merge(O, O')
    with sgn = (-1)^{|O|*|E'|} times the sign of the shuffle merging E
    and E' into increasing order; coinciding even indices kill the term.
    """
    terms2 = list(terms2)
    for m1, c1 in terms1:
        even1, odd1 = m1.even, m1.odd
        for m2, c2 in terms2:
            merged = merge_even(even1, m2.even)
            if merged is None:
                continue
            even, shuffle = merged
            if len(odd1) * len(m2.even) % 2:
                shuffle = -shuffle
            odd2 = m2.odd
            m = _monomial(even, tuple(sorted(odd1 + odd2)) if odd1 and odd2 else odd1 or odd2)
            val = c1 * c2
            positive = shuffle == sign
            prev = acc.get(m)
            if prev is None:
                acc[m] = val if positive else -val
            else:
                acc[m] = prev + val if positive else prev - val


def merge_even(e1: tuple[int, ...], e2: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    if not e1 or not e2:
        return e1 or e2, 1
    if set(e1) & set(e2):
        return None
    # count inversions between the blocks (each crossing is one swap)
    inv = 0
    for x in e1:
        for y in e2:
            if x > y:
                inv += 1
    return tuple(sorted(e1 + e2)), (-1 if inv % 2 else 1)


def wedge_by_tuples(a: Cochain, b: Cochain) -> Cochain:
    acc: dict[Monomial, Rat] = {}
    wedge_into(acc, a.terms, b.terms, 1)
    return Cochain.from_terms(a.basis, acc)


def contractions_by_tuples(
    terms: Iterable[tuple[Monomial, Rat]],
) -> dict[int, dict[Monomial, Rat]]:
    """The contraction i_t(A) by every letter t of A, in one pass over
    A's terms (the sign rules of ``cochains._contractions``)."""
    out: dict[int, dict[Monomial, Rat]] = {}
    for m, c in terms:
        even, odd = m.even, m.odd
        for p, t in enumerate(even):
            mm = _monomial(even[:p] + even[p + 1 :], odd)
            out.setdefault(t, {})[mm] = -c if p % 2 else c
        odd_sign = -1 if (len(even) + len(odd)) % 2 else 1
        for p, t in enumerate(odd):
            if p and odd[p - 1] == t:
                continue  # one term per distinct odd letter
            mm = _monomial(even, odd[:p] + odd[p + 1 :])
            mu = odd_sign * odd.count(t)
            out.setdefault(t, {})[mm] = c if mu == 1 else -c if mu == -1 else mu * c
    return out


def dual_differentials_by_tuples(g: LieSuperalgebra) -> dict[int, dict[Monomial, Rat]]:
    """delta(t*) for every basis index t, keyed by Monomial."""
    ne = g.basis.even_dim
    images: dict[int, dict[Monomial, Rat]] = {t: {} for t in range(g.basis.dim)}
    for (i, j), br in g.constants.items():
        if i == j and i < ne:
            continue  # no canonical pair repeats an even index
        pair = Monomial(tuple(x for x in (i, j) if x < ne), tuple(x for x in (i, j) if x >= ne))
        for t, v in br.items():
            images[t][pair] = _num(Fraction(-v, 2)) if i == j else -_num(v)
    return images


def delta_by_tuples(g: LieSuperalgebra, terms: Iterable[tuple[Monomial, Rat]]) -> dict[Monomial, Rat]:
    """delta of (Monomial, coefficient) terms, zero-free: every term that
    contains a letter t goes into one wedge with delta(t*), signed eps_t."""
    ne, duals = g.basis.even_dim, dual_differentials_by_tuples(g)
    acc: dict[Monomial, Rat] = {}
    for t, contracted in contractions_by_tuples(terms).items():
        if duals[t]:
            wedge_into(acc, contracted.items(), duals[t].items(), 1 if t < ne else -1)
    return {m: x for m, x in acc.items() if x}


def poisson_left_by_tuples(q: QuadraticLieSuperalgebra, a: Cochain) -> list[dict[Monomial, Rat]]:
    """A as the left operand of {A, .}: per letter s,
    (-1)^{deg A + 1} sum_r (G^{-1})[r][s] iota_r(A)."""
    _require_quadratic(q, "the Poisson bracket").require_form()
    contractions = contractions_by_tuples((m, c if m.degree % 2 else -c) for m, c in a.terms)
    return [
        _combination((x, contractions.get(r, {})) for r, x in col.items())
        for col in q.form.inverse_columns
    ]


def poisson_by_tuples(q: QuadraticLieSuperalgebra, left, terms: Iterable[tuple[Monomial, Rat]], sign: int) -> dict:
    """sign * {A, terms} for A prepared by ``poisson_left_by_tuples``,
    zero-free: one wedge per letter s of the terms' contractions."""
    ne, terms, acc = q.basis.even_dim, list(terms), {}
    # eps_s depends on the symmetric degree g of a right term: contract
    # the right terms of each parity of g apart
    for parity in (0, 1):
        right = contractions_by_tuples((m, c) for m, c in terms if sym_degree(m) % 2 == parity)
        odd_sign = sign if parity else -sign
        for s, right_s in right.items():
            if left[s]:
                wedge_into(acc, left[s].items(), right_s.items(), sign if s < ne else odd_sign)
    return {m: x for m, x in acc.items() if x}


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
    return sign * value * mult_factor(target)


def from_values(basis, k: int, value_fn) -> Cochain:
    """The degree-k cochain with the values ``value_fn`` gives on the
    canonical tuples (the inverse of ``evaluate``)."""
    terms: dict[Monomial, Rat] = {}
    for m in monomials_of_degree(basis, k):
        v = value_fn(m.even + m.odd)
        if v != 0:
            terms[m] = Fraction(v, mult_factor(m))
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
    idx, vec = cb.index, {}
    for m, coeff in c.keys.items():
        if m not in idx:
            raise InputError(f"cochain term {_unpack(c.basis.even_dim, m)} does not live in C^{cb.degree}")
        vec[idx[m]] = Fraction(coeff)
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


def block_key(cx, m: Monomial) -> int:
    """The block key of m in the complex ``cx`` as the engine makes it:
    twice the sum of its letters' packed block weights (the second of
    the ``_weights`` kept on cx's algebra) plus its number of odd letters
    mod 2."""
    return 2 * sum(cx.algebra._weights[1][t] for t in m.even + m.odd) + len(m.odd) % 2


def built_by_filter(cx, k: int) -> dict[Monomial, int]:
    """The monomials of C^k of inner weight 0 (the sum of their letters'
    packed inner weights, the first of ``_weights``, is 0), in basis
    order, each with its key; all of C^k without an inner torus."""
    monomials = monomials_of_degree(cx.basis, k)
    if not cx.algebra._torus:
        return dict.fromkeys(monomials, 0)
    inner = cx.algebra._weights[0]
    return {m: block_key(cx, m) for m in monomials if not sum(inner[t] for t in m.even + m.odd)}


def enumerate_by_degree(basis: GradedBasis, k: int, inner: list[int] | None = None,
                        weight: list[int] | None = None) -> dict[int, int]:
    """The packed monomials of C^k in basis order, each mapped to its block
    key.  Given an algebra's ``_weights`` (packed inner and block weights
    per letter), only those of inner weight 0: per alternating degree a,
    the odd multisets of size k - a are grouped by inner weight and each
    even a-subset takes the group of minus its own.  A key is twice the
    sum of the letters' block weights plus the sym-parity, its even
    part's plus its odd part's: one addition.  Without, all of C^k."""
    if k > DEGREE_LIMIT:
        raise ResourceLimitError(f"degree {k} exceeds the packed monomials' limit {DEGREE_LIMIT}")
    ne, n, out = basis.even_dim, basis.dim, {}
    units = [_unit(ne, t) for t in range(n)]
    for a in range(min(k, ne) + 1):
        odd: dict[int, list[tuple[int, int]]] = {}
        for od in itertools.combinations_with_replacement(range(ne, n), k - a):
            key = 2 * sum(map(weight.__getitem__, od)) + (k - a) % 2 if weight else 0
            odd.setdefault(sum(map(inner.__getitem__, od)) if inner else 0, []).append((sum(map(units.__getitem__, od)), key))
        for ev in itertools.combinations(range(ne), a):
            e, w = sum(map(units.__getitem__, ev)), 2 * sum(map(weight.__getitem__, ev)) if weight else 0
            out.update({e + o: w + key for o, key in odd.get(-sum(map(inner.__getitem__, ev)) if inner else 0, ())})
    return out


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


def echelon_add_by_scan(rows: dict[int, dict[int, Rat]], v: dict[int, Rat], limit: float = float("inf")) -> bool:
    """``Echelon.add`` without the column index: v reduced in place against
    ``rows`` ({pivot: row}, reduced echelon); if a nonzero is left before
    ``limit``, v becomes the row of its leftmost column, scaled to 1, and
    the new pivot is looked up in every kept row and cleared from it."""

    def subtract(w: dict[int, Rat], a: Rat, row: dict[int, Rat]) -> None:
        for j, x in row.items():
            if y := w.get(j, 0) - a * x:
                w[j] = y
            else:
                del w[j]

    for p in [j for j in v if j in rows]:
        subtract(v, v[p], rows[p])
    pivot = min(v, default=limit)
    if pivot >= limit:
        return False
    lead = v[pivot]
    if lead == 1:
        new = v
    elif lead == -1:
        new = {j: -x for j, x in v.items()}
    else:
        inv = Fraction(1, lead)
        new = {j: _num(x * inv) for j, x in v.items()}
    for row in rows.values():
        if a := row.get(pivot):
            subtract(row, a, new)
    rows[pivot] = new
    return True


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
        gram = dense_gram(q.form)
        even_inv = (
            inverse_dense([[gram[i][j] for j in range(ne)] for i in range(ne)])
            if ne
            else []
        )
        odd_inv = (
            inverse_dense(
                [
                    [gram[i][j] for j in range(ne, n)]
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
        gram = [list(row) for row in dense_gram(obj.form)]
    else:
        gram = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    r, c = rng.randrange(n), rng.randrange(n)
    gram[r][c] += Fraction(rng.choice((-1, 1, 2)))
    return QuadraticLieSuperalgebra(algebra=algebra, form=gram_form(g.basis, gram))


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
    jacobi, form = algebra_module.validate_super_jacobi, quadratic_module._form_check
    monkeypatch.setattr(
        algebra_module, "validate_super_jacobi", lambda g: passes["jacobi"].append(g.dim) or jacobi(g)
    )
    monkeypatch.setattr(
        quadratic_module, "_form_check", lambda g, b, left: passes["form"].append(g.dim) or form(g, b, left)
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
    gram = dense_gram(form)
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


def form_pairs_dense(basis: GradedBasis, form: BilinearForm) -> list[Violation]:
    """The evenness and supersymmetry rules of the form check on every pair
    i <= j of basis vectors, as the engine ran them before it walked only
    the pairs where B(e_i, e_j) or B(e_j, e_i) is nonzero."""
    out: list[Violation] = []
    n, p, labels, rows = basis.dim, basis.parities, basis.labels, form.rows
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
    return out


def validate_form_by_union_walk(g: LieSuperalgebra, form: BilinearForm) -> list[Violation]:
    """Evenness and supersymmetry by pairs, invariance by one walk over the
    sorted union of the triples where B([e_i,e_j],e_k) or B(e_i,[e_j,e_k])
    is nonzero, then the rank of the Gram matrix."""
    n, labels = g.basis.dim, g.basis.labels
    rows, cols = form.rows, form.columns
    out = form_pairs_dense(g.basis, form)
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
        out.append(Violation(rule="nondegenerate", witness=(), message=f"Gram matrix has rank {gram_rank} < {n}"))
    return out


def defects_by_unit(q_or_g, degree: int):
    """The defect of the matrix unit E_rs (D e_s = e_r), as a function
    unit(r, s) -> {(rule, i, j, t): nonzero in the kernels' form}, built
    per unit: ``extensions._defects`` builds the whole system in one pass.

    * Leibniz, rule 0, for i <= j: the t-th coordinate of
      D[e_i,e_j] - [De_i,e_j] - (-1)^{alpha x_i}[e_i,De_j];
    * skew, rule 1, t = 0, only when q_or_g carries a form:
      B(De_i,e_j) + (-1)^{alpha x_i} B(e_i,De_j).
    """
    quadratic = isinstance(q_or_g, QuadraticLieSuperalgebra)
    g = q_or_g.algebra if quadratic else q_or_g
    p, by_first = g.basis.parities, g._by_first  # by_first: a -> (j, [e_a, e_j])
    sign = [-1 if degree and x else 1 for x in p]
    by_target: dict[int, list] = {}  # t -> (i, j, c_ij^t) for i <= j
    for (i, j), terms in g.bracket_table.items():
        if i <= j:
            for t, c in terms.items():
                by_target.setdefault(t, []).append((i, j, c))
    if quadratic:
        gram_rows = q_or_g.form.rows  # r -> {j: B(e_r, e_j)}
        gram_cols = q_or_g.form.columns  # r -> {i: B(e_i, e_r)}

    def unit(r: int, s: int) -> dict[tuple[int, int, int, int], Rat]:
        out: dict[tuple[int, int, int, int], Rat] = {}
        for i, j, c in by_target.get(s, ()):  # D[e_i, e_j]
            out[0, i, j, r] = out.get((0, i, j, r), 0) + c
        for j, terms in by_first.get(r, ()):  # -[D e_s, e_j]
            if j >= s:
                for t, c in terms.items():
                    out[0, s, j, t] = out.get((0, s, j, t), 0) - c
        for i, terms in by_first.get(r, ()):  # -(-1)^{alpha x_i}[e_i, D e_s]
            if i <= s:  # [e_i, e_r] = -(-1)^{x_i x_r}[e_r, e_i]
                f = -sign[i] if p[i] and p[r] else sign[i]
                for t, c in terms.items():
                    out[0, i, s, t] = out.get((0, i, s, t), 0) + f * c
        if quadratic:
            for j, v in gram_rows[r].items():  # B(D e_s, e_j)
                out[1, s, j, 0] = out.get((1, s, j, 0), 0) + v
            for i, v in gram_cols[r].items():  # (-1)^{alpha x_i} B(e_i, D e_s)
                out[1, i, s, 0] = out.get((1, i, s, 0), 0) + sign[i] * v
        return {key: _num(v) for key, v in out.items() if v}

    return unit


def skew_superderivation_space_unpruned(q: QuadraticLieSuperalgebra, degree: int) -> list[Superderivation]:
    """The reduced kernel of the defect (``defects_by_unit``) on every entry
    (i, j) with parity(i) = parity(j) + degree, every row of the system kept."""
    n, p = q.basis.dim, q.basis.parities
    slots = [(i, j) for i in range(n) for j in range(n) if p[i] == (p[j] + degree) % 2]
    unit = defects_by_unit(q, degree)
    rows: dict[tuple, dict[int, Rat]] = {}
    for k, slot in enumerate(slots):
        for key, v in unit(*slot).items():
            rows.setdefault(key, {})[k] = v
    out = []
    for v in reduced_kernel(list(rows.values()), len(slots)):
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for k, x in v.items():
            i, j = slots[k]
            matrix[i][j] = Fraction(x)
        out.append(Superderivation(matrix=matrix, degree=degree))
    return out


def superderivation_by_pairs(g: LieSuperalgebra, d: Superderivation) -> list[Violation]:
    """Grading, then D[X,Y] = [DX,Y] + (-1)^{alpha x}[X,DY] on dense vectors."""
    basis = g.basis
    degree = d.degree
    violations = grading_violations_dense(basis, d.matrix, degree)
    for i in range(basis.dim):
        for j in range(i, basis.dim):
            x = basis.parities[i]
            lhs = [Fraction(0)] * basis.dim
            for t, c in g.bracket_pair(i, j).items():
                col = derivation_column(d, t)
                for r in range(basis.dim):
                    lhs[r] += c * col[r]
            rhs = bracket(g, derivation_column(d, i), basis_vector(g, j))
            sign = -1 if (degree * x) % 2 else 1
            second = bracket(g, basis_vector(g, i), derivation_column(d, j))
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
            lhs = form_value(q.form, derivation_column(d, i), basis_vector(q.algebra, j))
            rhs = form_value(q.form, basis_vector(q.algebra, i), derivation_column(d, j))
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
                    base.form, derivation_column(d.psi[k], i - nh), basis_vector(base.algebra, j - nh)
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
    base_gram, gamma_gram = dense_gram(base.form), d.gamma and dense_gram(d.gamma)
    for inew in range(total):
        for jnew in range(total):
            i, j = order[inew], order[jnew]
            x, y = old_parity(i), old_parity(j)
            v = Fraction(0)
            if i < nh and j < nh:
                v = gamma_gram[i][j] if d.gamma is not None else Fraction(0)
            elif nh <= i < nh + ng and nh <= j < nh + ng:
                v = base_gram[i - nh][j - nh]
            elif i >= nh + ng and j < nh:
                # f(W)
                v = Fraction(1) if i - nh - ng == j else Fraction(0)
            elif i < nh and j >= nh + ng:
                sign = -1 if (x * y) % 2 else 1
                v = Fraction(sign) if j - nh - ng == i else Fraction(0)
            gram[inew][jnew] = v
    out = QuadraticLieSuperalgebra(algebra=algebra, form=gram_form(new_basis, gram))
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
