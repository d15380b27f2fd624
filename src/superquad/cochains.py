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

Wedge and contraction are the two kernels; the rest is built from
them.  delta is a superderivation, so only the degree-1 images
delta(t*) = -[., .]_t are read from the structure constants, and
delta(A) = sum_t +-i_t(A) ^ delta(t*) (``differential_direct``); the
Poisson bracket is a biderivation, a sum over pairs of letters of
i_r(A) ^ i_s(A') weighted by the inverse Gram matrix.  The evaluation
formula for delta on argument tuples, with the evaluation rule above,
is the test suite's oracle (``tests/helpers.py``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import GradedBasis, LieSuperalgebra
from .errors import InputError
from .linalg import Rat, _check_degree, _combine, _frac, _num, rat, rat_str
from .quadratic import QuadraticLieSuperalgebra, _require_quadratic


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
    def sym_degree(self) -> int:
        return len(self.odd)

    @property
    def degree(self) -> int:
        return len(self.even) + len(self.odd)

    def sort_key(self) -> tuple:
        even, odd = self.even, self.odd
        return (len(even) + len(odd), len(even), even, odd)

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


def _term(term: object) -> tuple[Monomial, Rat]:
    """A cochain term (Monomial, coefficient), its coefficient made exact
    (``rat``); InputError for anything of another shape."""
    if not isinstance(term, (tuple, list)) or len(term) != 2:
        raise InputError("each cochain term must be a (Monomial, coefficient) pair")
    if term[0].__class__ is not Monomial:
        raise InputError(f"a Cochain's monomials must be Monomials, not {type(term[0]).__name__}")
    return term[0], rat(term[1])


@dataclass(frozen=True)
class Cochain:
    """Sparse rational combination of monomials over a fixed basis."""

    basis: GradedBasis
    terms: tuple[tuple[Monomial, Rat], ...]

    def __post_init__(self):
        if not isinstance(self.basis, GradedBasis) or not isinstance(self.terms, (tuple, list)):
            raise InputError("a Cochain takes a GradedBasis and a tuple of (Monomial, coefficient) terms")
        ne = self.basis.even_dim
        n = self.basis.dim
        terms: dict[Monomial, Rat] = {}
        for term in self.terms:
            m, c = _term(term)
            if m in terms:
                raise InputError("duplicate monomial in cochain terms")
            if c == 0:
                raise InputError("zero coefficient stored in cochain")
            if any(not (0 <= i < ne) for i in m.even):
                raise InputError("even index out of range")
            if any(not (ne <= j < n) for j in m.odd):
                raise InputError("odd index out of range")
            terms[m] = c
        object.__setattr__(self, "terms", _terms(terms))

    @classmethod
    def from_terms(cls, basis: GradedBasis, terms: Mapping[Monomial, Rat] | Iterable[tuple[Monomial, Rat]]) -> "Cochain":
        acc: dict[Monomial, Rat] = {}
        pairs = terms.items() if hasattr(terms, "items") else terms
        if not isinstance(pairs, Iterable):
            raise InputError(f"cochain terms are a mapping or pairs, not {type(terms).__name__}")
        for term in pairs:
            m, c = _term(term)
            prev = acc.get(m)
            acc[m] = c if prev is None else prev + c
        return cls(basis, [(m, c) for m, c in acc.items() if c])

    @classmethod
    def zero(cls, basis: GradedBasis) -> "Cochain":
        return cls(basis=basis, terms=())

    @classmethod
    def unit(cls, basis: GradedBasis) -> "Cochain":
        return cls.from_terms(basis, {UNIT: Fraction(1)})

    @classmethod
    def dual(cls, basis: GradedBasis, label: str) -> "Cochain":
        """The dual vector of a basis element as a degree-1 monomial."""
        return cls.from_terms(basis, {_letters(basis.even_dim, (basis.index(label),)): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: Monomial) -> Rat:
        for mm, c in self.terms:
            if mm == m:
                return c
        return Fraction(0)

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._plus(other, 1)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._plus(other, -1)

    def _plus(self, other: "Cochain", sign: int) -> "Cochain":
        """self + sign * other for a sign of +1 or -1, merged term by term."""
        _check_cochain(other, self.basis)
        acc = dict(self.terms)
        for m, c in other.terms if sign == 1 else ((m, -c) for m, c in other.terms):
            prev = acc.get(m)
            acc[m] = c if prev is None else prev + c
        return _cochain(self.basis, acc)

    def __neg__(self) -> "Cochain":
        return _sorted_cochain(self.basis, tuple((m, -v) for m, v in self.terms))

    def scale(self, c: Rat) -> "Cochain":
        """c * self; anything ``rat`` refuses, a float among them, is an
        InputError.  A nonzero c keeps the monomials, so the terms stay
        sorted and nonzero."""
        c = rat(c)
        if c == 0:
            return Cochain.zero(self.basis)
        return _sorted_cochain(self.basis, tuple((m, c * v) for m, v in self.terms))

    def __rmul__(self, c) -> "Cochain":
        return self.scale(c)

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
    return _sorted_cochain(basis, _terms(acc))


def _sorted_cochain(basis: GradedBasis, terms: tuple[tuple[Monomial, Rat], ...]) -> Cochain:
    """The cochain of terms already in the form ``_terms`` returns, without
    the checks of ``Cochain(...)``."""
    c = object.__new__(Cochain)
    c.__dict__.update(basis=basis, terms=terms)
    return c


def _check_cochain(c: object, basis: GradedBasis | None) -> None:
    """Raise InputError unless c is a Cochain over ``basis`` (any, for None)."""
    if not isinstance(c, Cochain):
        raise InputError(f"expected a Cochain, not {type(c).__name__}")
    if c.basis is not basis and basis is not None and c.basis != basis:
        raise InputError("cochains live over different bases")


def _basis_of(x: object, kinds: tuple[type, ...]) -> GradedBasis:
    """The GradedBasis of x, one of ``kinds`` (a basis is its own), or
    InputError: the check of every public function that takes a basis."""
    if not isinstance(x, kinds):
        raise InputError(f"expected a {' or '.join(t.__name__ for t in kinds)}, not {type(x).__name__}")
    return x if isinstance(x, GradedBasis) else x.basis


def monomials_of_degree(basis: GradedBasis, k: int) -> list[Monomial]:
    """Deterministic monomial enumeration of C^k: by alternating degree
    ascending, then lexicographic."""
    basis = _basis_of(basis, (GradedBasis,))
    _check_degree(k)
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
    _check_cochain(a, None)
    _check_cochain(b, a.basis)
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
    A's terms, each monomial once.  i_t is one to one on the monomials
    that contain t, so no two terms meet in the same i_t(A).

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
            out.setdefault(t, {})[mm] = -c if p % 2 else c
        odd_sign = -1 if (len(even) + len(odd)) % 2 else 1
        for p, t in enumerate(odd):
            if p and odd[p - 1] == t:
                continue  # one term per distinct odd letter
            mm = _monomial(even, odd[:p] + odd[p + 1 :])
            mu = odd_sign * odd.count(t)
            out.setdefault(t, {})[mm] = c if mu == 1 else -c if mu == -1 else mu * c
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


def differential_direct(g: LieSuperalgebra, c: Cochain) -> Cochain:
    """The differential, one wedge per letter t of c:

    delta(A) = sum_t eps_t i_t(A) ^ delta(t*),  eps_t = 1 for an even t, -1 for an odd t.

    delta is a superderivation of the wedge product,
    delta(A ^ B) = delta(A) ^ B + (-1)^{deg A} A ^ delta(B),
    so it is fixed by its values on the duals t* of the basis vectors,
    built once per algebra (``LieSuperalgebra._duals``).  On a monomial,
    the wedge of its k letters, the Leibniz rule replaces the letter t at
    position p by delta(t*) with the sign (-1)^p, and moving delta(t*)
    (bidegree (2, |t|)) to the end, past the letters after t, all odd when
    t is, leaves (-1)^p for an even t and (-1)^(k-1) for each occurrence
    of an odd t.  The contraction i_t (``_contractions``) deletes t with (-1)^p,
    or with mu (-1)^k for an odd t of multiplicity mu: hence eps_t.  All
    the terms of c that contain t go into one wedge with delta(t*)
    (``_delta``).  Degree-0 terms map to zero.  The evaluation formula on
    every canonical (k+1)-tuple is kept in the tests as the oracle.
    """
    _check_cochain(c, _basis_of(g, (LieSuperalgebra,)))
    return _cochain(g.basis, _delta(g, ((m, _num(x)) for m, x in c.terms)))


def _delta(g: LieSuperalgebra, terms: Iterable[tuple[Monomial, Rat | int]]) -> dict[Monomial, Rat | int]:
    """delta of (monomial, coefficient in the kernels' form) terms, zero-free."""
    ne, duals = g.basis.even_dim, g._duals
    acc: dict[Monomial, Rat | int] = {}
    for t, contracted in _contractions(terms).items():
        if duals[t]:
            _wedge_into(acc, contracted.items(), duals[t].items(), 1 if t < ne else -1)
    return {m: x for m, x in acc.items() if x}


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
    _require_quadratic(q, "associated_three_form").require_form()
    ne = q.basis.even_dim
    pairs = {(i, j): terms for (i, j), terms in q.algebra.bracket_table.items() if i <= j}
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
    return _bracket(_poisson_left(q, a), b, 1)


@dataclass(frozen=True)
class _PoissonLeft:
    """The left operand A of {A, .} with everything that does not depend
    on the right operand done: ``dual[s]`` is
    (-1)^{deg A + 1} sum_r (G^{-1})[r][s] iota_r(A)."""

    basis: GradedBasis
    dual: list[dict[Monomial, Rat]]


def _poisson_left(q: QuadraticLieSuperalgebra, a: Cochain) -> _PoissonLeft:
    """A prepared as the left operand of ``poisson_bracket``.  Raises
    InputError unless q is quadratic and passes its ``require_form``."""
    _require_quadratic(q, "the Poisson bracket").require_form()
    _check_cochain(a, q.basis)
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
    """scale * {A, b} for the prepared left operand A (``_poisson``)."""
    _check_cochain(b, left.basis)
    return _cochain(b.basis, _poisson(left, [(m, _num(c)) for m, c in b.terms], scale))


def _poisson(left: _PoissonLeft, terms: Sequence[tuple[Monomial, Rat | int]], scale: int) -> dict:
    """scale * {A, terms} for the prepared left operand A, zero-free, as in
    ``_delta``: one wedge per letter s of the terms' contractions."""
    ne = left.basis.even_dim
    acc: dict[Monomial, Rat | int] = {}
    # eps_s depends on the symmetric degree g of a right term: contract
    # the right terms of each parity of g apart
    for parity in (0, 1):
        right = _contractions((m, c) for m, c in terms if m.sym_degree % 2 == parity)
        odd_sign = scale if parity else -scale
        for s, right_s in right.items():
            if left.dual[s]:
                _wedge_into(acc, left.dual[s].items(), right_s.items(), scale if s < ne else odd_sign)
    return {m: x for m, x in acc.items() if x}


def differential_via_poisson(q: QuadraticLieSuperalgebra, c: Cochain) -> Cochain:
    """delta = -{I, .}, I the associated 3-form, from I's side of {I, .} as q
    keeps it (``QuadraticLieSuperalgebra._three_form_left``); the minus sign
    goes into the accumulation of the bracket."""
    return _bracket(_require_quadratic(q, "differential_via_poisson")._three_form_left, c, -1)
