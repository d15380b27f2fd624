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

Wedge and contraction are the two operations; the rest is built from
them.  delta is a superderivation, so only the degree-1 images
delta(t*) = -[., .]_t are read from the structure constants, and
delta(A) = sum_t +-i_t(A) ^ delta(t*) (``differential_direct``); the
Poisson bracket is a biderivation, a sum over pairs of letters of
i_r(A) ^ i_s(A') weighted by the inverse Gram matrix.  The evaluation
formula for delta on argument tuples, with the evaluation rule above,
is the test suite's oracle (``tests/helpers.py``), as are the kernels
on ``Monomial`` tuples that the packed ones replaced.

Inside the kernels a monomial is one int (``_pack``): bit t is the even
letter t, and above the even bits each odd letter has a WIDTH-bit field
holding its multiplicity.  A product is an AND (a shared even letter
kills it) and one addition, a shuffle sign the parity of a popcount
against a mask, i_t a bit clear or a field decrement.  A field holds at
most DEGREE_LIMIT: the constructors refuse a monomial past it and every
product checks its room first (ResourceLimitError), so no field overflows
into the next.  A Cochain is its packed terms (``Cochain.keys``), which the
kernels read and return, and arithmetic merges them without sorting;
``Monomial`` is only constructor input, ``Cochain.terms`` (decoded on first
read), ``CochainBasis.monomials`` and printing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from ._frozen import Frozen
from .algebra import GradedBasis, LieSuperalgebra
from .errors import InputError, ResourceLimitError
from .linalg import Rat, _check_degree, _frac, _num, rat, rat_str
from .quadratic import QuadraticLieSuperalgebra, _require_quadratic

WIDTH = 8  # the bits of an odd letter's field in a packed monomial
DEGREE_LIMIT = (1 << WIDTH) - 1  # the largest multiplicity, and degree, a packed monomial holds


class Monomial(Frozen):
    """Basis cochain: strictly increasing even part, sorted odd part.

    Indices are positions in the algebra's full basis list, so even
    entries are < basis.even_dim and odd entries are >= basis.even_dim.
    The hash and the degree are taken once, at construction: a class
    query reads each term's degree several times.
    """

    _fields = ("even", "odd")

    def __init__(self, even: tuple[int, ...], odd: tuple[int, ...]):
        if any(a >= b for a, b in zip(even, even[1:])):
            raise InputError("even indices must be strictly increasing")
        if any(a > b for a, b in zip(odd, odd[1:])):
            raise InputError("odd indices must be weakly increasing")
        self.__dict__.update(even=even, odd=odd, _hash=hash((even, odd)), degree=len(even) + len(odd))

    def __eq__(self, other):
        if other.__class__ is not Monomial:
            return NotImplemented
        return self.even == other.even and self.odd == other.odd

    def __hash__(self) -> int:
        return self._hash

    @property
    def sym_degree(self) -> int:
        return len(self.odd)

    def sort_key(self) -> tuple:
        return (self.degree, len(self.even), self.even, self.odd)

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


def _monomial(even: tuple[int, ...], odd: tuple[int, ...]) -> Monomial:
    """The monomial of parts already in order, without the order check
    (for the kernels, which build monomials only from ordered parts)."""
    m = object.__new__(Monomial)
    fields = m.__dict__
    fields["even"], fields["odd"], fields["_hash"], fields["degree"] = even, odd, hash((even, odd)), len(even) + len(odd)
    return m


def _unit(ne: int, t: int) -> int:
    """Letter t packed, for ``ne`` even letters."""
    return 1 << t if t < ne else 1 << ne + WIDTH * (t - ne)


def _pack(ne: int, m: Monomial) -> int:
    return sum(_unit(ne, t) for t in m.even + m.odd)


def _unpack(ne: int, m: int) -> Monomial:
    odd, fields, t = (), m >> ne, ne
    while fields:
        odd += (t,) * (fields & DEGREE_LIMIT)
        fields, t = fields >> WIDTH, t + 1
    return _monomial(tuple(t for t in range(ne) if m >> t & 1), odd)


def _sym_degree(ne: int, m: int) -> int:
    """The number of odd letters of packed m: the sum of its fields."""
    total, fields = 0, m >> ne
    while fields:
        total, fields = total + (fields & DEGREE_LIMIT), fields >> WIDTH
    return total


def _degree_of(ne: int, m: int) -> int:
    """The degree of packed m: its even bits plus its odd fields."""
    return (m & (1 << ne) - 1).bit_count() + _sym_degree(ne, m)


def _top(c: Cochain) -> int:
    """The largest degree of c's terms, 0 for the zero cochain."""
    return max(c._degrees, default=0)


def _fits(degree: int) -> None:
    """ResourceLimitError unless a product of this degree fits a packed monomial."""
    if degree > DEGREE_LIMIT:
        raise ResourceLimitError(f"a product of degree over {DEGREE_LIMIT} does not fit a packed monomial")


def _room(c: Cochain, room: int) -> Iterable[tuple[int, Rat | int]]:
    """c's (packed monomial, value) pairs, once a product that adds ``room``
    to their degree is known to fit a packed monomial (``_fits``)."""
    _fits(_top(c) + room)
    return c.keys.items()


def _format_monomial(m: Monomial, even_dim: int) -> str:
    parts = []
    if m.even:
        parts.append("e(" + "^".join(str(i + 1) for i in m.even) + ")")
    if m.odd:
        parts.append("s(" + " ".join(str(j - even_dim + 1) for j in m.odd) + ")")
    if not parts:
        return "1"
    return " ⊗ ".join(parts)


def _term(basis: GradedBasis, term: object) -> tuple[int, Rat | int]:
    """A cochain term (Monomial, coefficient) over ``basis``, packed, the
    coefficient exact (``rat``) in the kernels' form; InputError for another
    shape or an index out of range, ResourceLimitError past DEGREE_LIMIT."""
    if not isinstance(term, (tuple, list)) or len(term) != 2:
        raise InputError("each cochain term must be a (Monomial, coefficient) pair")
    m, c = term
    if m.__class__ is not Monomial:
        raise InputError(f"a Cochain's monomials must be Monomials, not {type(m).__name__}")
    ne, n = basis.even_dim, basis.dim
    if any(not (0 <= i < ne) for i in m.even):
        raise InputError("even index out of range")
    if any(not (ne <= j < n) for j in m.odd):
        raise InputError("odd index out of range")
    if m.degree > DEGREE_LIMIT:
        raise ResourceLimitError(f"a monomial of degree {m.degree} does not fit a packed monomial")
    return _pack(ne, m), _num(rat(c))


class Cochain(Frozen):
    """Sparse rational combination of monomials over a fixed basis.

    ``keys``, read-only, maps each packed monomial (``_pack``) to its nonzero
    coefficient in the kernels' form (``linalg._num``): what the kernels read
    and return, and equality and the hash compare.  ``terms``, the (Monomial,
    Fraction) pairs sorted by ``Monomial.sort_key``, is decoded on first read,
    and ``_degrees``, the keys split by degree, is made on its first read; a
    class query keeps its split against a complex on the cochain
    (``cohomology._part``).  None of them is a field: equality, the hash, the
    repr and pickling read only ``basis`` and ``keys``."""

    _fields = ("basis", "keys")

    def __init__(self, basis: GradedBasis, terms: Sequence[tuple[Monomial, Rat]]):
        if not isinstance(basis, GradedBasis) or not isinstance(terms, (tuple, list)):
            raise InputError("a Cochain takes a GradedBasis and a tuple of (Monomial, coefficient) terms")
        keys = dict(_term(basis, term) for term in terms)
        if len(keys) < len(terms):
            raise InputError("duplicate monomial in cochain terms")
        if not all(keys.values()):
            raise InputError("zero coefficient stored in cochain")
        self.__dict__.update(basis=basis, keys=MappingProxyType(keys))

    @classmethod
    def from_terms(cls, basis: GradedBasis, terms: Mapping[Monomial, Rat] | Iterable[tuple[Monomial, Rat]]) -> "Cochain":
        basis = _basis_of(basis, (GradedBasis,))
        pairs = terms.items() if hasattr(terms, "items") else terms
        if not isinstance(pairs, Iterable):
            raise InputError(f"cochain terms are a mapping or pairs, not {type(terms).__name__}")
        acc: dict[int, Rat | int] = {}
        for term in pairs:
            m, c = _term(basis, term)
            acc[m] = acc.get(m, 0) + c
        return _cochain(basis, acc)

    @classmethod
    def zero(cls, basis: GradedBasis) -> "Cochain":
        return _wrap(_basis_of(basis, (GradedBasis,)), {})

    @classmethod
    def unit(cls, basis: GradedBasis) -> "Cochain":
        return _cochain(_basis_of(basis, (GradedBasis,)), {0: 1})

    @classmethod
    def dual(cls, basis: GradedBasis, label: str) -> "Cochain":
        """The dual vector of a basis element as a degree-1 monomial."""
        basis = _basis_of(basis, (GradedBasis,))
        return _cochain(basis, {_unit(basis.even_dim, basis.index(label)): 1})

    @cached_property
    def terms(self) -> tuple[tuple[Monomial, Rat], ...]:
        ne = self.basis.even_dim
        terms = ((_unpack(ne, m), _frac(c)) for m, c in self.keys.items())
        return tuple(sorted(terms, key=lambda kv: kv[0].sort_key()))

    @cached_property
    def _degrees(self) -> dict[int, dict[int, Rat | int]]:
        """``keys`` split by degree, {k: {packed monomial: value}}, in one pass."""
        ne, out = self.basis.even_dim, {}
        for m, c in self.keys.items():
            if (part := out.get(k := _degree_of(ne, m))) is None:
                out[k] = {m: c}
            else:
                part[m] = c
        return out

    @property
    def is_zero(self) -> bool:
        return not self.keys

    def __hash__(self) -> int:
        return hash((self.basis, frozenset(self.keys.items())))

    def __repr__(self) -> str:
        return f"Cochain(basis={self.basis!r}, terms={self.terms!r})"

    def __reduce__(self):
        return _cochain, (self.basis, dict(self.keys))

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._plus(other, 1)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._plus(other, -1)

    def _plus(self, other: "Cochain", sign: int) -> "Cochain":
        """self + sign * other for a sign of +1 or -1, merged key by key:
        only a merged entry can become zero or integral."""
        _check_cochain(other, self.basis)
        acc = self.keys.copy()
        get = acc.get
        for m, c in other.keys.items():
            c = c if sign == 1 else -c
            if (x := get(m)) is None:
                acc[m] = c
            elif x := x + c:
                acc[m] = _num(x)
            else:
                del acc[m]
        return _wrap(self.basis, acc)

    def __neg__(self) -> "Cochain":
        return _wrap(self.basis, {m: -x for m, x in self.keys.items()})

    def scale(self, c: Rat) -> "Cochain":
        """c * self; InputError for anything ``rat`` refuses, a float among them."""
        c = _num(rat(c))
        return _wrap(self.basis, {m: _num(c * x) for m, x in self.keys.items()} if c else {})

    def __rmul__(self, c) -> "Cochain":
        return self.scale(c)

    def __str__(self) -> str:
        ne = self.basis.even_dim
        return "  +  ".join(f"{rat_str(c)} * {_format_monomial(m, ne)}" for m, c in self.terms) or "0"


def _cochain(basis: GradedBasis, acc: Mapping[int, Rat | int]) -> Cochain:
    """The cochain of an accumulator {packed monomial: value}, zeros dropped,
    values in the kernels' form, without the checks of ``Cochain(...)``: the
    kernels make monomials in range and within DEGREE_LIMIT."""
    return _wrap(basis, {m: _num(x) for m, x in acc.items() if x})


def _wrap(basis: GradedBasis, keys: dict[int, Rat | int]) -> Cochain:
    """The cochain whose keys are ``keys`` as they are: zero-free and in the
    kernels' form already, as a kernel's output is."""
    c = object.__new__(Cochain)
    c.__dict__.update(basis=basis, keys=MappingProxyType(keys))
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
    return [_unpack(basis.even_dim, m) for m in _enumerate(basis, k, {}, {})]


def _enumerate(basis: GradedBasis, k: int, evens: dict, odds: dict, inner: list[int] | None = None,
               weight: list[int] | None = None) -> dict[int, int]:
    """The packed monomials of C^k of inner weight 0 (all without weights) in
    basis order, each mapped to its block key, the sum of its parts': per
    alternating degree a, ascending, each even a-subset takes the odd
    (k - a)-multisets of minus its inner weight.  The tables, each size
    listed on first use, lexicographic: evens[a] (packed, twice the block
    weight, inner weight), odds[s] {inner weight: [(packed, twice the block
    weight + s % 2)]}, summed from ``_weights`` (packed per letter, or 0)."""
    if k > DEGREE_LIMIT:
        raise ResourceLimitError(f"degree {k} exceeds the packed monomials' limit {DEGREE_LIMIT}")
    ne, n, out = basis.even_dim, basis.dim, {}
    columns = [_unit(ne, t) for t in range(n)], [2 * x for x in weight or [0] * n], inner or [0] * n
    for a in range(min(k, ne) + 1):
        if (odd := odds.get(k - a)) is None:
            odd = odds[k - a] = {}
            for part, w, i in zip(*(map(sum, itertools.combinations_with_replacement(c[ne:], k - a)) for c in columns)):
                odd.setdefault(i, []).append((part, w + (k - a) % 2))
        if not odd:
            continue  # no odd multiset of that size: no even subset is listed
        if (even := evens.get(a)) is None:
            even = evens[a] = list(zip(*(map(sum, itertools.combinations(c[:ne], a)) for c in columns)))
        for e, w, i in even:
            for o, key in odd.get(-i, ()):
                out[e + o] = w + key
    return out


def wedge(a: Cochain, b: Cochain) -> Cochain:
    """Super-exterior product.  On monomials

    (E (x) O) ^ (E' (x) O') = sgn * merge(E, E') (x) merge(O, O')

    with sgn = (-1)^{|O|*|E'|} times the sign of the shuffle merging E and
    E' into increasing order: each letter of E' passes the |O| odd letters
    and the letters of E above it.  Coinciding even indices kill the term.
    """
    _check_cochain(a, None)
    _check_cochain(b, a.basis)
    ne = a.basis.even_dim
    even, acc, right = (1 << ne) - 1, {}, b.keys.items()
    for m1, c1 in _room(a, _top(b)):
        o1 = _sym_degree(ne, m1)
        for m2, c2 in right:
            if not m1 & m2 & even:
                flip = sum((m1 & even >> y + 1 << y + 1).bit_count() + o1 for y in range(ne) if m2 >> y & 1)
                acc[m1 + m2] = acc.get(m1 + m2, 0) + (-c1 * c2 if flip & 1 else c1 * c2)
    return _cochain(a.basis, acc)


def _contractions(ne: int, terms: Iterable[tuple[int, Rat | int]]) -> dict[int, dict[int, Rat | int]]:
    """The contraction i_t(A) by every letter t of A, A given by packed
    terms, each monomial once (i_t is one to one on the monomials that
    contain t).  i_X(A)(args) = (-1)^{x * b(A)} A(X, args) for X of
    parity x and A of Z2-degree b(A).  On a monomial of a even and b odd
    letters, an even t at position p is deleted with (-1)^p; an odd t of
    multiplicity mu loses one occurrence with mu * (-1)^(a+b): (-1)^a from
    carrying the argument past the alternating slots, (-1)^b from the
    prefactor, mu from the symmetric slots that can absorb it.
    """
    out: dict[int, dict[int, Rat | int]] = {}
    for m, c in terms:
        for t in range(ne):
            if m >> t & 1:
                out.setdefault(t, {})[m ^ 1 << t] = -c if (m & (1 << t) - 1).bit_count() % 2 else c
        odd_c = -c if ((m & (1 << ne) - 1).bit_count() + _sym_degree(ne, m)) % 2 else c
        fields, t, unit = m >> ne, ne, 1 << ne
        while fields:
            if fields & DEGREE_LIMIT:
                out.setdefault(t, {})[m - unit] = (fields & DEGREE_LIMIT) * odd_c
            fields, t, unit = fields >> WIDTH, t + 1, unit << WIDTH
    return out


def _combination(
    parts: Iterable[tuple[Rat, Mapping[int, Rat]]],
) -> dict[int, Rat]:
    """sum_i x_i * A_i over (x_i, terms of A_i) pairs."""
    acc: dict[int, Rat] = {}
    for x, terms in parts:
        if x:
            for m, c in terms.items():
                val = x * c
                prev = acc.get(m)
                acc[m] = val if prev is None else prev + val
    return acc


def _dual_differentials(g: LieSuperalgebra) -> list[list[tuple[int, int, int, Rat | int]]]:
    """delta(t*) for every basis index t, as packed entries (even part,
    monomial, mask, coefficient in the kernels' form, see ``linalg._num``).

    delta(t*) has value -[e_i, e_j]_t on each canonical pair (i, j): the
    coefficient of the monomial of (i, j) is -c_ij^t, halved when i = j
    (an odd square, whose canonical value is twice its coefficient).
    ``_delta`` puts i_t(m) on its left, which passes the letters of i_t(m)
    above each even letter y of the pair: the mask above y.  A pair with
    one even letter also takes (-1)^|O| of i_t(m), which with eps_t and the
    (-1)^deg of an odd contraction leaves (-1)^|E|: the whole mask is then
    complemented, and is the letters up to each y, XORed, either way.  So
    ``_delta`` relies on the grading: only an odd t has such pairs, and a
    bracket that breaks it is refused (InputError).
    """
    ne, parities, labels = g.basis.even_dim, g.basis.parities, g.basis.labels
    images = [[] for _ in range(g.basis.dim)]
    for (i, j), br in g.constants.items():
        if i == j and i < ne:
            continue  # no canonical pair repeats an even index
        pair = _unit(ne, i) + _unit(ne, j)
        mask = ((2 << i) - 1 if i < ne else 0) ^ ((2 << j) - 1 if j < ne else 0)
        for t, v in br.items():
            if (parities[i] + parities[j] + parities[t]) % 2:
                raise InputError(f"the bracket breaks the grading: [{labels[i]}, {labels[j]}] has a {labels[t]} term")
            images[t].append((pair & (1 << ne) - 1, pair, mask, _num(Fraction(-v, 2)) if i == j else -_num(v)))
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
    or with mu (-1)^k for an odd t of multiplicity mu: hence eps_t.  The
    kernel is ``_delta``, on packed monomials.  Degree-0 terms map to
    zero.  The evaluation formula on every canonical (k+1)-tuple is kept
    in the tests as the oracle.
    """
    _check_cochain(c, _basis_of(g, (LieSuperalgebra,)))
    return _wrap(g.basis, _delta(g, _room(c, 1)))


def _delta(g: LieSuperalgebra, terms: Iterable[tuple[int, Rat | int]]) -> dict[int, Rat | int]:
    """delta of packed (monomial, coefficient in the kernels' form) terms,
    zero-free and in the kernels' form: fractional terms may sum to an
    integer.  Per letter t of a monomial m: i_t(m), a bit clear with
    (-1)^p for an even t at position p or a field decrement times the
    multiplicity for an odd t, then one product with each entry of
    delta(t*) (``_dual_differentials``) that shares no even letter with
    it, its sign the parity of i_t(m) & mask.  Written apart from
    ``_poisson``, which cross-checks it.
    """
    ne, duals = g.basis.even_dim, g._duals
    acc: dict[int, Rat | int] = {}
    get = acc.get
    for m, c in terms:
        # (i_t(m), its coefficient, t) for every letter t of m
        contracted = [(m ^ 1 << t, -c if (m & (1 << t) - 1).bit_count() & 1 else c, t) for t in range(ne) if m >> t & 1]
        fields, t, unit = m >> ne, ne, 1 << ne
        while fields:
            if fields & DEGREE_LIMIT:
                contracted.append((m - unit, (fields & DEGREE_LIMIT) * c, t))
            fields, t, unit = fields >> WIDTH, t + 1, unit << WIDTH
        for mm, x, t in contracted:
            for even, pair, mask, v in duals[t]:
                if not mm & even:
                    y, key = x * v, mm + pair
                    acc[key] = get(key, 0) + (-y if (mm & mask).bit_count() & 1 else y)
    return {m: _num(x) for m, x in acc.items() if x}


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
    acc: dict[int, Rat] = {}
    for (i, j), row in q._bracket_form.items():  # B([e_i, e_j], .)
        for k, x in row.items():
            if i <= j <= k:  # a repeated letter is odd; i = k repeats it thrice
                acc[_unit(ne, i) + _unit(ne, j) + _unit(ne, k)] = Fraction(x, 6 if i == k else 2 if i == j or j == k else 1)
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


class _PoissonLeft(Frozen):
    """The left operand A of {A, .} with everything that does not depend
    on the right operand done: per letter s it pairs with, (the offset of
    s's bit or field, the terms of (-1)^{deg A + 1} sum_r (G^{-1})[r][s]
    iota_r(A) as ``_poisson`` reads them); ``degree`` is A's largest."""

    _fields = ("basis", "dual", "degree")

    def __init__(self, basis: GradedBasis, dual: list[tuple[int, list[tuple[int, int, int, Rat | int]]]], degree: int):
        self.__dict__.update(basis=basis, dual=dual, degree=degree)


def _poisson_left(q: QuadraticLieSuperalgebra, a: Cochain) -> _PoissonLeft:
    """A prepared as the left operand of ``poisson_bracket``; InputError
    unless q is quadratic and passes its ``require_form``.  An entry L of
    letter s goes on the left of i_s(m), passing each even letter of L
    over those of i_s(m) below it: its mask is the letters below each even
    letter of L, XORed, complemented for (-1)^{|O_L| |E|}.  For an odd s,
    i_s's (-1)^deg and eps_s = -(-1)^g leave -(-1)^|E|: one more
    complement, and the coefficient negated.
    """
    _require_quadratic(q, "the Poisson bracket").require_form()
    _check_cochain(a, q.basis)
    ne, dual = q.basis.even_dim, []
    even = (1 << ne) - 1
    # (-1)^{deg A + 1} depends only on the degree of a left term, so it
    # goes into the left coefficients before contracting
    signed = [(m, c if k % 2 else -c) for k, part in a._degrees.items() for m, c in part.items()]
    contractions = _contractions(ne, signed)
    for s, col in enumerate(q.form.inverse_columns):
        entries = []
        for left, x in _combination((x, contractions.get(r, {})) for r, x in col.items()).items():
            if not x:
                continue
            mask = even if (_sym_degree(ne, left) + (s >= ne)) % 2 else 0
            for y in range(ne):
                mask ^= (1 << y) - 1 if left >> y & 1 else 0
            entries.append((left & even, left, mask, -x if s >= ne else x))
        if entries:
            dual.append((s if s < ne else ne + WIDTH * (s - ne), entries))
    return _PoissonLeft(q.basis, dual, _top(a))


def _bracket(left: _PoissonLeft, b: Cochain, scale: int) -> Cochain:
    """scale * {A, b} for the prepared left operand A (``_poisson``)."""
    _check_cochain(b, left.basis)
    return _wrap(b.basis, _poisson(left, _room(b, max(left.degree - 2, 0)), scale))


def _poisson(left: _PoissonLeft, terms: Iterable[tuple[int, Rat | int]], scale: int) -> dict[int, Rat | int]:
    """scale * {A, terms} (scale +-1) for the prepared left operand A,
    packed as in ``_delta``, zero-free and in the kernels' form.  Per
    letter s of A's table that a right monomial m contains: i_s(m), then
    one product with each of s's entries that shares no even letter with
    it, its sign the parity of i_s(m) & mask.  Written apart from
    ``_delta``, with its own table and its own loop over letters.
    """
    ne, dual = left.basis.even_dim, left.dual
    acc: dict[int, Rat | int] = {}
    get = acc.get
    for m, c in terms:
        c = c if scale == 1 else -c
        for shift, entries in dual:
            unit = 1 << shift
            if shift < ne:
                if not m & unit:
                    continue
                mm, x = m ^ unit, -c if (m & unit - 1).bit_count() & 1 else c
            elif m >> shift & DEGREE_LIMIT:
                mm, x = m - unit, (m >> shift & DEGREE_LIMIT) * c
            else:
                continue
            for even, other, mask, v in entries:
                if not mm & even:
                    y, key = x * v, mm + other
                    acc[key] = get(key, 0) + (-y if (mm & mask).bit_count() & 1 else y)
    return {m: _num(x) for m, x in acc.items() if x}


def differential_via_poisson(q: QuadraticLieSuperalgebra, c: Cochain) -> Cochain:
    """delta = -{I, .}, I the associated 3-form, from I's side of {I, .} as q
    keeps it (``QuadraticLieSuperalgebra._three_form_left``); the minus sign
    goes into the accumulation of the bracket."""
    return _bracket(_require_quadratic(q, "differential_via_poisson")._three_form_left, c, -1)
