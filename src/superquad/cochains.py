"""The bigraded cochain algebra of a Lie superalgebra.

C(g) = Alt(g_0*) (x) Sym(g_1*): alternating multilinear forms on the
even part tensored with symmetric forms on the odd part.  A monomial is
a wedge of distinct even dual vectors times a product of odd dual
vectors; a cochain is a finite rational combination of monomials.  The
bidegree of Alt^a (x) Sym^b is (a+b, b mod 2) in the Z x Z2-gradation.

Evaluation convention (fixed once, everything else is derived from it):

* a monomial e_{i1}^...^e_{ia} (x) s_{j1}...s_{jb} evaluated on the
  canonical argument tuple (e_{i1},...,e_{ia}, s_{j1},...,s_{jb}) gives
  the product of the multiplicities' factorials, prod_j mult_j!, coming
  from summing over all permutations of the symmetric slots with no
  1/b! normalization;
* on any other argument tuple the value is obtained by reordering the
  arguments to canonical form, where transposing two adjacent
  homogeneous arguments multiplies the value by -(-1)^{xy}: -1 unless
  both arguments are odd.

Under this convention the differential of the dual of a Heisenberg
central element comes out as sum_i X_{n+i}*^X_i* - 1/2 sum_j (Y_j*)^2,
which is the regression the whole sign machinery is pinned to.

The differential is built from the Leibniz rule: a monomial is the
wedge of its letters, and delta is a superderivation, so only the
degree-1 images delta(t*) = -[., .]_t are read from the structure
constants.  The evaluation formula for delta on argument tuples is the
test suite's oracle for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import GradedBasis, LieSuperalgebra
from .errors import InputError
from .linalg import Rat, _combine, _frac, _num, rat_str
from .quadratic import QuadraticLieSuperalgebra


@dataclass(frozen=True, eq=False)
class Monomial:
    """Basis cochain: strictly increasing even part, sorted odd part.

    Indices are positions in the algebra's full basis list, so even
    entries are < basis.even_dim and odd entries are >= basis.even_dim.
    The hash is taken once, at construction: monomials are the keys of
    every accumulator the kernels merge into.
    """

    even: tuple[int, ...]
    odd: tuple[int, ...]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.even, self.even[1:])):
            raise InputError("even indices must be strictly increasing")
        if any(a > b for a, b in zip(self.odd, self.odd[1:])):
            raise InputError("odd indices must be weakly increasing")
        object.__setattr__(self, "_hash", hash((self.even, self.odd)))

    def __eq__(self, other):
        if other.__class__ is not Monomial:
            return NotImplemented
        return self.even == other.even and self.odd == other.odd

    def __hash__(self) -> int:
        return self._hash

    @property
    def alt_degree(self) -> int:
        return len(self.even)

    @property
    def sym_degree(self) -> int:
        return len(self.odd)

    @property
    def degree(self) -> int:
        return len(self.even) + len(self.odd)

    @property
    def z2_degree(self) -> int:
        return len(self.odd) % 2

    def sort_key(self) -> tuple:
        return (self.degree, self.alt_degree, self.even, self.odd)

    def mult_factor(self) -> int:
        """prod over distinct odd indices of (multiplicity)!"""
        out = 1
        run = 1
        for a, b in zip(self.odd, self.odd[1:]):
            if a == b:
                run += 1
            else:
                out *= math.factorial(run)
                run = 1
        out *= math.factorial(run)
        return out


UNIT = Monomial(even=(), odd=())


def _monomial(even: tuple[int, ...], odd: tuple[int, ...]) -> Monomial:
    """The monomial of parts already in order, without the order check
    (for the kernels, which build monomials only from ordered parts)."""
    m = object.__new__(Monomial)
    fields = m.__dict__
    fields["even"], fields["odd"], fields["_hash"] = even, odd, hash((even, odd))
    return m


def _format_monomial(m: Monomial, even_dim: int) -> str:
    parts = []
    if m.even:
        parts.append("e(" + "^".join(str(i + 1) for i in m.even) + ")")
    if m.odd:
        parts.append("s(" + " ".join(str(j - even_dim + 1) for j in m.odd) + ")")
    if not parts:
        return "1"
    return " ⊗ ".join(parts)


@dataclass(frozen=True)
class Cochain:
    """Sparse rational combination of monomials over a fixed basis."""

    basis: GradedBasis
    terms: tuple[tuple[Monomial, Rat], ...]

    def __post_init__(self):
        ne = self.basis.even_dim
        n = self.basis.dim
        seen = set()
        for m, c in self.terms:
            if m in seen:
                raise InputError("duplicate monomial in cochain terms")
            seen.add(m)
            if c == 0:
                raise InputError("zero coefficient stored in cochain")
            if any(not (0 <= i < ne) for i in m.even):
                raise InputError("even index out of range")
            if any(not (ne <= j < n) for j in m.odd):
                raise InputError("odd index out of range")

    @classmethod
    def from_terms(cls, basis: GradedBasis, terms: Mapping[Monomial, Rat] | Iterable[tuple[Monomial, Rat]]) -> "Cochain":
        acc: dict[Monomial, Rat] = {}
        zero = Fraction(0)
        for m, c in terms.items() if isinstance(terms, Mapping) else terms:
            acc[m] = acc.get(m, zero) + c
        return cls(basis, _terms(acc))

    @classmethod
    def zero(cls, basis: GradedBasis) -> "Cochain":
        return cls(basis=basis, terms=())

    @classmethod
    def unit(cls, basis: GradedBasis) -> "Cochain":
        return cls.from_terms(basis, {UNIT: Fraction(1)})

    @classmethod
    def dual(cls, basis: GradedBasis, label: str) -> "Cochain":
        """The dual vector of a basis element as a degree-1 monomial."""
        i = basis.index(label)
        if basis.parities[i] == 0:
            return cls.from_terms(basis, {Monomial(even=(i,), odd=()): Fraction(1)})
        return cls.from_terms(basis, {Monomial(even=(), odd=(i,)): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: Monomial) -> Rat:
        for mm, c in self.terms:
            if mm == m:
                return c
        return Fraction(0)

    def __add__(self, other: "Cochain") -> "Cochain":
        _same_basis(self, other)
        return Cochain.from_terms(self.basis, self.terms + other.terms)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> "Cochain":
        return self.scale(Fraction(-1))

    def scale(self, c: Rat) -> "Cochain":
        if c == 0:
            return Cochain.zero(self.basis)
        return Cochain.from_terms(self.basis, {m: c * v for m, v in self.terms})

    def __rmul__(self, c) -> "Cochain":
        return self.scale(Fraction(c))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ne = self.basis.even_dim
        parts = []
        for m, c in self.terms:
            parts.append(f"{rat_str(c)} * {_format_monomial(m, ne)}")
        return "  +  ".join(parts)


def _terms(acc: Mapping[Monomial, Rat | int]) -> tuple[tuple[Monomial, Rat], ...]:
    """The terms of an accumulator: zero entries dropped, every coefficient
    a Fraction, sorted."""
    terms = ((m, _frac(c)) for m, c in acc.items() if c)
    return tuple(sorted(terms, key=lambda kv: kv[0].sort_key()))


def _cochain(basis: GradedBasis, acc: Mapping[Monomial, Rat | int]) -> Cochain:
    """The cochain of a kernel's accumulator, without the checks of
    ``Cochain(...)``: the kernels make each monomial once, in range, from
    the letters of checked cochains and of the algebra."""
    c = object.__new__(Cochain)
    c.__dict__.update(basis=basis, terms=_terms(acc))
    return c


def _same_basis(a: Cochain, b: Cochain):
    if a.basis != b.basis:
        raise InputError("cochains live over different bases")


def reorder_to_canonical(
    parities: Sequence[int], args: Sequence[int]
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


def evaluate(c: Cochain, args: Sequence[int]) -> Rat:
    """Evaluate on a tuple of basis-vector indices.

    Degree-k terms pair with k arguments; terms of other degrees
    contribute zero.  A canonical-tuple evaluation of a monomial is
    coefficient * mult_factor on itself and 0 on any other monomial.
    """
    parities = c.basis.parities
    canonical = reorder_to_canonical(parities, args)
    if canonical is None:
        return Fraction(0)
    even, odd, sign = canonical
    target = Monomial(even=even, odd=odd)
    value = c.coefficient(target)
    if value == 0:
        return Fraction(0)
    return sign * value * target.mult_factor()


def monomials_of_degree(basis: GradedBasis, k: int) -> list[Monomial]:
    """Deterministic monomial enumeration of C^k: by alternating degree
    ascending, then lexicographic."""
    ne, n = basis.even_dim, basis.dim
    out = []
    for a in range(0, min(k, ne) + 1):
        b = k - a
        for ev in itertools.combinations(range(ne), a):
            for od in itertools.combinations_with_replacement(range(ne, n), b):
                out.append(_monomial(ev, od))
    return out


def wedge(a: Cochain, b: Cochain) -> Cochain:
    """Super-exterior product (see ``_wedge_into`` for the rule)."""
    _same_basis(a, b)
    acc: dict[Monomial, Rat] = {}
    _wedge_into(acc, a.terms, b.terms, 1)
    return _cochain(a.basis, acc)


def _wedge_into(
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
            merged = _merge_even(even1, m2.even)
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


def _merge_even(e1: tuple[int, ...], e2: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
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


def _contractions(
    terms: Iterable[tuple[Monomial, Rat]],
) -> dict[int, dict[Monomial, Rat]]:
    """The contraction i_t(A) by every letter t of A, in one pass over
    A's terms.

    i_X(A)(args) = (-1)^{x * b(A)} A(X, args) where x is the parity of X
    and b(A) the Z2-degree of A.  On a monomial with even part E (length
    a) and odd part O (length b):

    * even t at position p of E: delete it, coefficient factor (-1)^p;
    * odd t of multiplicity mu in O: delete one occurrence, coefficient
      factor mu * (-1)^(a+b) (the (-1)^a from carrying the argument past
      the a alternating slots, the (-1)^b from the Z2 prefactor, the mu
      from the symmetric slots that can absorb it).
    """
    out: dict[int, dict[Monomial, Rat]] = {}
    for m, c in terms:
        even, odd = m.even, m.odd
        for p, t in enumerate(even):
            mm = _monomial(even[:p] + even[p + 1 :], odd)
            val = -c if p % 2 else c
            acc = out.setdefault(t, {})
            prev = acc.get(mm)
            acc[mm] = val if prev is None else prev + val
        odd_sign = -1 if (len(even) + len(odd)) % 2 else 1
        for p, t in enumerate(odd):
            if p and odd[p - 1] == t:
                continue  # one term per distinct odd letter
            mm = _monomial(even, odd[:p] + odd[p + 1 :])
            mu = odd_sign * odd.count(t)
            val = c if mu == 1 else -c if mu == -1 else mu * c
            acc = out.setdefault(t, {})
            prev = acc.get(mm)
            acc[mm] = val if prev is None else prev + val
    return out


def _combination(
    parts: Iterable[tuple[Rat, Mapping[Monomial, Rat]]],
) -> dict[Monomial, Rat]:
    """sum_i x_i * A_i over (x_i, terms of A_i) pairs."""
    acc: dict[Monomial, Rat] = {}
    for x, terms in parts:
        if x:
            for m, c in terms.items():
                val = x * c
                prev = acc.get(m)
                acc[m] = val if prev is None else prev + val
    return acc


def contract_index(i: int, c: Cochain) -> Cochain:
    """Contraction with basis vector number i, i_X(A)(args) =
    (-1)^{x * b(A)} A(X, args); ``_contractions`` has the rule on monomials."""
    return _cochain(c.basis, _contractions(c.terms).get(i, {}))


def contract_vector(c: Cochain, vector: Sequence[Rat]) -> Cochain:
    """Contraction with a parity-homogeneous coordinate vector."""
    v = list(vector)
    if len(v) != c.basis.dim:
        raise InputError("contraction vector has the wrong length")
    parity = c.basis.parity_of_vector(v)
    if parity is None and any(x != 0 for x in v):
        raise InputError("contraction vector must be parity-homogeneous")
    contractions = _contractions(c.terms)
    return _cochain(
        c.basis, _combination((x, contractions.get(i, {})) for i, x in enumerate(v))
    )


def _dual_differentials(g: LieSuperalgebra) -> dict[int, dict[Monomial, Rat]]:
    """delta(t*) for every basis index t, coefficients in the kernels'
    form (see ``linalg._num``).

    delta(t*) has value -[e_i, e_j]_t on each canonical pair (i, j): the
    coefficient of the monomial of (i, j) is -c_ij^t, halved when i = j
    (an odd square, whose canonical value is twice its coefficient).
    """
    ne = g.basis.even_dim
    images: dict[int, dict[Monomial, Rat]] = {t: {} for t in range(g.basis.dim)}
    for (i, j), br in g.constants.items():
        if i == j and i < ne:
            continue  # no canonical pair repeats an even index
        pair = _letters(ne, (i, j))
        for t, v in br.items():
            images[t][pair] = _num(Fraction(-v, 2)) if i == j else -_num(v)
    return images


def differential_direct(
    g: LieSuperalgebra,
    c: Cochain,
    *,
    duals: Mapping[int, Mapping[Monomial, Rat]] | None = None,
) -> Cochain:
    """The differential, built from the Leibniz rule on degree-1 duals.

    delta is a superderivation of the wedge product,
    delta(A ^ B) = delta(A) ^ B + (-1)^{deg A} A ^ delta(B),
    so it is fixed by its values on the duals t* of the basis vectors
    (``_dual_differentials``).  A monomial is the wedge of its letters
    (evens ascending, then odds with multiplicity) with coefficient 1,
    hence
    delta(L_1 ^ ... ^ L_k) = sum_p (-1)^(p-1) L_1 ^ .. ^ delta(L_p) ^ .. ^ L_k,
    each summand being, up to sign, the other letters' monomial wedged
    with delta(L_p).  Degree-0 terms map to zero.  The evaluation formula
    on every canonical (k+1)-tuple is kept in the tests as the oracle.

    ``duals`` is ``_dual_differentials(g)``, built once by a caller that
    differentiates many cochains; without it the table is built here.
    """
    ne = g.basis.even_dim
    if duals is None:
        duals = _dual_differentials(g)
    acc: dict[Monomial, Rat] = {}
    for m, coeff in c.terms:
        coeff = _num(coeff)
        letters = m.even + m.odd
        k = len(letters)
        for p, t in enumerate(letters):
            if not duals[t]:
                continue
            # delta(t*) has bidegree (2, |t|), so moving it right past the
            # k - p - 1 letters after it, all odd when t is, adds
            # (-1)^(|t| (k - p - 1)) to the (-1)^p of the Leibniz rule
            flips = k - 1 if t >= ne else p
            rest = _letters(ne, letters[:p] + letters[p + 1 :])
            _wedge_into(acc, ((rest, coeff),), duals[t].items(), -1 if flips % 2 else 1)
    return _cochain(g.basis, acc)


def _letters(even_dim: int, letters: Sequence[int]) -> Monomial:
    """The monomial of a canonically ordered run of letters."""
    return _monomial(
        tuple(i for i in letters if i < even_dim),
        tuple(i for i in letters if i >= even_dim),
    )


def associated_three_form(q: QuadraticLieSuperalgebra) -> Cochain:
    """The cochain I of bidegree (3, even) with I(X,Y,Z) = B([X,Y],Z).

    The coefficient of the monomial of a canonical triple i <= j <= k is
    B([e_i,e_j],e_k) / mult_factor, its value there.  The form check
    (``QuadraticLieSuperalgebra.require_form``) makes that I: invariance
    and supersymmetry give every other ordering its value, and the grading
    keeps a repeated even letter and an odd I out.
    """
    q.require_form()
    ne = q.basis.even_dim
    pairs = {(i, j): terms for (i, j), terms in q.algebra.bracket_table().items() if i <= j}
    acc: dict[Monomial, Rat] = {}
    for (i, j), row in _combine(pairs, q.form.rows).items():  # B([e_i, e_j], .)
        for k, x in row.items():
            if k >= j:
                m = _letters(ne, (i, j, k))
                acc[m] = Fraction(x, m.mult_factor())
    return _cochain(q.basis, acc)


def poisson_bracket(q: QuadraticLieSuperalgebra, a: Cochain, b: Cochain) -> Cochain:
    """Super Z x Z2-Poisson bracket on cochains.

    For A of degree deg A and A' with symmetric degree g:

    {A, A'} = (-1)^{deg A + 1} sum_{r,s} (G^{-1})[r][s] eps_s
                 iota_r(A) ^ iota_s(A')

    where G is the Gram matrix of B (block diagonal, B being even),
    eps_s = 1 for an even letter s and -(-1)^g for an odd one.  The
    paper writes the odd part over an odd Darboux basis X^k, Y^k as
    (-1)^{deg A + g + 1} sum_k (iota_{X^k}(A) ^ iota_{Y^k}(A')
    - iota_{Y^k}(A) ^ iota_{X^k}(A')); for the Darboux matrix M,
    M J M^T = -G_odd^{-1}, which is the sum above.

    The signs are the unique choice (for this library's evaluation and
    wedge conventions) under which the bracket is the biderivation
    extension of the inverse-Gram pairings on degree-1 duals:

      {u*, v*} = (G^{-1})[u][v],   zero across parities,

    with graded antisymmetry {A',A} = -(-1)^{aa'+bb'}{A,A'} and Leibniz
    {A, A'^A''} = {A,A'}^A'' + (-1)^{aa'+bb'} A'^{A,A''} on Z x Z2
    bidegrees (a, b).  These identities, graded Jacobi, and
    delta = -{I, .} are enforced by the test suite.
    """
    _same_basis(a, b)
    return _bracket(_poisson_left(q, a), b, 1)


@dataclass(frozen=True)
class _PoissonLeft:
    """The left operand A of {A, .} with everything that does not depend
    on the right operand done: ``dual[s]`` is
    (-1)^{deg A + 1} sum_r (G^{-1})[r][s] iota_r(A)."""

    basis: GradedBasis
    dual: list[dict[Monomial, Rat]]


def _poisson_left(q: QuadraticLieSuperalgebra, a: Cochain) -> _PoissonLeft:
    """A prepared as the left operand of ``poisson_bracket``, built once
    by a caller that brackets it with many cochains.  Raises InputError
    unless q passes ``QuadraticLieSuperalgebra.require_form``."""
    if a.basis != q.basis:
        raise InputError("the cochain and the form live over different bases")
    q.require_form()
    # (-1)^{deg A + 1} depends only on the degree of a left term, so it
    # goes into the left coefficients before contracting
    contractions = _contractions(
        (m, _num(c) if m.degree % 2 else -_num(c)) for m, c in a.terms
    )
    return _PoissonLeft(
        q.basis,
        [
            _combination((x, contractions.get(r, {})) for r, x in col.items())
            for col in q.form.inverse_columns
        ],
    )


def _bracket(left: _PoissonLeft, b: Cochain, scale: int) -> Cochain:
    """scale * {A, b} for the prepared left operand A: one wedge per
    letter s of b's contractions."""
    if b.basis != left.basis:
        raise InputError("cochains live over different bases")
    ne = b.basis.even_dim
    acc: dict[Monomial, Rat] = {}
    # eps_s depends on the symmetric degree g of a right term: contract
    # the right terms of each parity of g apart
    for parity in (0, 1):
        right = _contractions((m, _num(c)) for m, c in b.terms if m.sym_degree % 2 == parity)
        odd_sign = scale if parity else -scale
        for s, right_s in right.items():
            if left.dual[s]:
                _wedge_into(acc, left.dual[s].items(), right_s.items(), scale if s < ne else odd_sign)
    return _cochain(b.basis, acc)


def differential_via_poisson(
    q: QuadraticLieSuperalgebra,
    c: Cochain,
    *,
    left: _PoissonLeft | None = None,
) -> Cochain:
    """delta = -{I, .} with I the associated 3-form.

    ``left`` is ``_poisson_left(q, I)``, built once by a caller that
    differentiates many cochains; without it it is built here.  The
    minus sign goes into the accumulation of the bracket.
    """
    if left is None:
        left = _poisson_left(q, associated_three_form(q))
    return _bracket(left, c, -1)
