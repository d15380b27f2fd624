"""Exact cohomology of the super-exterior complex.

One ``Complex`` per algebra holds what the engine reads more than once
per degree: the built parts of the cochain spaces, with the inner torus
that prunes them, and each delta_k as exact sparse columns between them.
What depends on the algebra alone (its bracket table, delta(t*), I and
I's side of {I, .}) is kept on the algebra object.  Kernels, images and
quotients are computed by exact sparse elimination over the rationals.

When some even x has a diagonal ad x with a nonzero weight (the inner
torus), Cartan's formula L_x = delta i_x + i_x delta makes every block
of nonzero inner weight acyclic: only the blocks of inner weight 0 are
built and eliminated, and the others are counted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from weakref import WeakValueDictionary

from .algebra import GradedBasis, LieSuperalgebra, diagonal_weights, inner_torus
from .cochains import (
    Cochain,
    Monomial,
    _basis_of,
    _check_cochain,
    _cochain,
    _combination,
    _contractions,
    _letters,
    differential_direct,
    differential_via_poisson,
    monomials_of_degree,
)
from .errors import EngineError, InputError, ResourceLimitError
from .linalg import Echelon, Rat, _check_degree, _frac, _num, _sparse_rows, reduced_kernel
from .quadratic import QuadraticLieSuperalgebra

__all__ = [
    "CochainBasis",
    "DifferentialMatrix",
    "CohomologyResult",
    "cochain_dimension",
    "cochain_basis",
    "differential_matrix",
    "cohomology",
    "betti_table",
    "is_cocycle",
    "is_coboundary",
    "class_vector",
    "cohomology_report",
]

MONOMIAL_LIMIT = 200000


def cochain_dimension(basis: GradedBasis, k: int) -> int:
    """dim C^k = sum_m C(dim even, m) * C(dim odd + k - m - 1, k - m)."""
    basis = _basis_of(basis, (GradedBasis,))
    _check_degree(k)
    p, q = basis.even_dim, basis.odd_dim
    total = 0
    for m in range(0, min(p, k) + 1):
        d = k - m  # symmetric degree; q variables admit C(q+d-1, d) monomials
        sym = 1 if d == 0 else (comb(q + d - 1, d) if q > 0 else 0)
        total += comb(p, m) * sym
    return total


@dataclass(frozen=True)
class CochainBasis:
    """Deterministic ordered monomial basis of C^k."""

    degree: int
    monomials: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if any(len(m.even) + len(m.odd) != self.degree for m in self.monomials):
            raise InputError("monomial degree disagrees with basis degree")

    @cached_property
    def _index(self) -> dict[Monomial, int]:
        """Monomial -> position, built once, on first use."""
        return {m: i for i, m in enumerate(self.monomials)}

    @property
    def dimension(self) -> int:
        return len(self.monomials)

    def coordinates(self, c: Cochain) -> dict[int, Rat]:
        idx, vec = self._index, {}
        for m, coeff in c.terms:
            if m not in idx:
                raise InputError(
                    f"cochain term {m} does not live in C^{self.degree}"
                )
            vec[idx[m]] = coeff
        return vec

    def from_coordinates(self, basis: GradedBasis, vec: dict[int, Rat]) -> Cochain:
        if any(not 0 <= i < len(self.monomials) for i in vec):
            raise InputError("coordinate index out of range")
        return Cochain.from_terms(basis, {self.monomials[i]: x for i, x in vec.items()})


def cochain_basis(g: LieSuperalgebra | GradedBasis, k: int) -> CochainBasis:
    basis = _basis_of(g, (GradedBasis, LieSuperalgebra, QuadraticLieSuperalgebra))
    return CochainBasis(degree=k, monomials=tuple(monomials_of_degree(basis, k)))


@dataclass(frozen=True)
class DifferentialMatrix:
    """delta_k as columns {target index: nonzero}, one per source monomial."""

    source: CochainBasis
    target: CochainBasis
    columns: tuple[dict[int, Rat], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.target.dimension, self.source.dimension)

    @property
    def entries(self) -> tuple[tuple[Rat, ...], ...]:
        """The dense matrix, built on each access."""
        zero = Fraction(0)
        return tuple(
            tuple(col.get(i, zero) for col in self.columns) for i in range(self.target.dimension)
        )


class Complex:
    """The cochain complex C(g) of the algebra ``q``, delta = -{I, .} when
    it is quadratic.  Each part is built once, on first use, and kept: the
    built part of each C^k (``built``), the inner torus (``torus``) and
    weights, each delta_k (``delta``) and the echelon of its columns
    (``image``); the algebra keeps the rest.  Every function of this
    module reaches it through ``_complex``: one complex per algebra
    object, alive while a caller or a CohomologyResult holds it.
    Algebras are treated as immutable values.  A delta_k built without
    the -{I, .} cross-check never serves a call that asks for it.
    ``check_size`` is the monomial guard each of those functions runs
    before any work.
    """

    def __init__(self, q: QuadraticLieSuperalgebra | LieSuperalgebra) -> None:
        self.basis = _basis_of(q, (QuadraticLieSuperalgebra, LieSuperalgebra))
        self.q = q
        self.algebra = q.algebra if isinstance(q, QuadraticLieSuperalgebra) else q
        self._sized = -1  # the largest k_max check_size passed
        self._built: dict[int, CochainBasis] = {}
        # degree -> (delta_k, built with the cross-check or not)
        self._deltas: dict[int, tuple[DifferentialMatrix, bool]] = {}
        self._images: dict[int, Echelon] = {}

    @cached_property
    def torus(self) -> list[tuple[dict[int, Rat | int], tuple[Rat | int, ...]]]:
        """The inner torus (``inner_torus``): pairs (x, w), [x, e_t] = w_t e_t.

        Certificate, on every build: i_x delta(t*) = -w_t t* for each x
        and letter t.  i_x t* is a constant, so this is Cartan's
        L_x = delta i_x + i_x delta on the generators, and both sides are
        even derivations: L_x multiplies a monomial by minus the sum w(m)
        of its letters' weights (its inner weight).  With
        delta(delta(t*)) = 0 for every t (super Jacobi), checked too, a
        block of inner weight s != 0 is acyclic: c = delta(-i_x c / s) for
        every cocycle c there.
        """
        torus, ne = inner_torus(self.algebra), self.basis.even_dim
        for t, image in self.algebra._duals.items() if torus else ():
            contractions = _contractions(image.items())
            for x, w in torus:
                got = _combination((a, contractions.get(i, {})) for i, a in x.items())
                if {m: c for m, c in got.items() if c} != ({_letters(ne, (t,)): -w[t]} if w[t] else {}):
                    raise EngineError(f"i_x delta({self.basis.labels[t]}*) != -w t*: the inner torus is wrong")
            if not differential_direct(self.algebra, _cochain(self.basis, image)).is_zero:
                raise InputError(f"delta(delta({self.basis.labels[t]}*)) != 0, so the bracket fails super Jacobi")
        return torus

    @cached_property
    def weights(self) -> list[tuple[int, ...]]:
        """Per letter t: its ``diagonal_weights`` coordinates, then w_t for
        each (x, w) of the inner torus, each column scaled once by a
        positive int to ints, then its parity.  ad x is a diagonal
        derivation, so a column w splits no block: it only carries the
        inner weight into every block key (``key``)."""
        columns = [*zip(*(row[:-1] for row in diagonal_weights(self.algebra))), *(w for _, w in self.torus)]
        scales = [lcm(*(x.denominator for x in col)) for col in columns]
        return [(*(int(col[t] * s) for col, s in zip(columns, scales)), p) for t, p in enumerate(self.basis.parities)]

    def key(self, m: Monomial) -> tuple[int, ...]:
        """The block key of m, computed on each call: the sums of its
        letters' ``weights``, the last one (its odd letters) taken mod 2.
        delta keeps it."""
        weights = self.weights
        zero = (0,) * len(weights[0])  # the key of 1, so an empty monomial sums too
        *lam, odd = map(sum, zip(zero, *map(weights.__getitem__, m.even + m.odd)))
        return (*lam, odd % 2)

    def built(self, k: int) -> CochainBasis:
        """The monomials of C^k whose inner weights (``key``) are 0, in
        basis order, or C^k itself without an inner torus: the source of
        delta_k and the target of delta_{k-1}, made once, on first use."""
        if k not in self._built:
            s, monomials = len(self.torus), monomials_of_degree(self.basis, k)
            zero = (m for m in monomials if not any(self.key(m)[-1 - s : -1])) if s else monomials
            self._built[k] = CochainBasis(k, tuple(zero))
        return self._built[k]

    def acyclic_dim(self, k: int) -> int:
        """dim Z^k = dim B^k over the blocks of nonzero inner weight (0
        without an inner torus).  Those blocks are acyclic (``torus``), so
        dim Z^k_w = sum_{j<k} (-1)^(k-1-j) dim C^j_w, counted with no
        elimination: dim C^j (``cochain_dimension``) less the built part."""
        if not self.torus:
            return 0
        return sum(
            (-1) ** (k - 1 - j) * (cochain_dimension(self.basis, j) - self.built(j).dimension)
            for j in range(k)
        )

    def check_size(self, k_max: int, what: str = "k_max") -> None:
        """Refuse, before any work, a k_max that is not a degree (named
        ``what`` in the message) and a dim C^k over ``MONOMIAL_LIMIT`` for
        k <= k_max + 1."""
        _check_degree(k_max, what)
        if k_max > self._sized:
            for k in range(k_max + 2):
                if (dim := cochain_dimension(self.basis, k)) > MONOMIAL_LIMIT:
                    raise ResourceLimitError(f"dim C^{k} = {dim} exceeds the monomial limit {MONOMIAL_LIMIT}")
            self._sized = k_max

    def delta(self, k: int, verify: bool = True) -> DifferentialMatrix:
        """delta_k, built by ``differential_matrix`` on first use, and once
        more if the cross-check is asked for and the first build had none."""
        hit = self._deltas.get(k)
        if hit is None or verify and not hit[1]:
            hit = self._deltas[k] = (differential_matrix(self.q, k, verify=verify), verify)
        return hit[0]

    def image(self, k: int, verify: bool = True) -> Echelon:
        """The echelon of delta_k's columns, B^{k+1} on the built part of
        C^{k+1}, eliminated once, on first use.  A rebuild of delta_k with
        the cross-check has the same columns, so it keeps serving."""
        d = self.delta(k, verify)
        if k not in self._images:
            self._images[k] = Echelon(_sparse_rows(d.columns))
        return self._images[k]


# the complex a call built for each algebra, while a caller or a result holds
# it; a complex holds its algebra, so a live entry's id names no other object
_LIVE: WeakValueDictionary[int, Complex] = WeakValueDictionary()


def _complex(q: QuadraticLieSuperalgebra | LieSuperalgebra, *cochains: Cochain) -> Complex:
    """The complex of q, each of ``cochains`` checked to be a cochain over
    its basis: the live complex built for that same object, or a new one,
    held weakly."""
    if (cx := _LIVE.get(id(q))) is None or cx.q is not q:
        cx = _LIVE[id(q)] = Complex(q)
    for c in cochains:
        _check_cochain(c, cx.basis)
    return cx


def differential_matrix(
    q: QuadraticLieSuperalgebra | LieSuperalgebra,
    k: int,
    *,
    verify: bool = True,
) -> DifferentialMatrix:
    """delta_k from the built part of C^k to that of C^{k+1}
    (``Complex.built``), column by column; no other code makes its columns.

    Each column is differential_direct of a basis monomial.  When
    ``verify`` is true and q is quadratic, every column is recomputed in
    full as -{I, monomial} (``differential_via_poisson``), and the two
    must agree exactly.

    delta keeps the weight of every diagonal derivation and the
    sym-parity (Hochschild-Serre), so it maps each block into the block
    with the same key (``Complex.key``), and the built part into the
    built part.  Certificate, with an inner torus: every term of every
    column must have its source's key, or the torus or delta is wrong
    (EngineError).
    """
    cx = _complex(q)
    cx.check_size(k)
    g, poisson = cx.algebra, verify and isinstance(q, QuadraticLieSuperalgebra)
    src, tgt = cx.built(k), cx.built(k + 1)
    index, columns = tgt._index, []
    for m in src.monomials:
        c = _cochain(g.basis, {m: 1})
        image = differential_direct(g, c).terms
        if poisson and image != differential_via_poisson(q, c).terms:
            raise EngineError(
                f"differential_direct and differential_via_poisson disagree on {m} in degree {k}"
            )
        key = cx.key(m) if cx.torus else None
        if key is not None and any(cx.key(mm) != key for mm, _ in image):
            raise EngineError(f"delta of {m} leaves its weight block {key}: the torus or delta is wrong")
        columns.append({index[mm]: x for mm, x in image})
    return DifferentialMatrix(src, tgt, tuple(columns))


class _Quotient(Echelon):
    """One row per representative of Z^k / B^k, over ``boundary``, the
    echelon of B^k (``Complex.image``), which it reads and never changes.
    Representative i is fed with a 1 in the tag column n + i (n = dim
    source) that row operations carry along, so a cocycle reduced to zero
    in the cochain columns leaves minus its class vector in the tag
    columns, and nothing exactly when it is a coboundary."""

    def __init__(self, source: CochainBasis, boundary: Echelon | None) -> None:
        super().__init__(limit=source.dimension)
        self.source, self.n, self.boundary = source, source.dimension, boundary or Echelon()

    def remainder(self, v: dict[int, Rat]) -> dict[int, Rat]:
        """v cleared at B^k's pivots, then at the representatives'."""
        return super().remainder(self.boundary.remainder(v))

    def add_cocycle(self, vec: dict[int, Rat]) -> bool:
        v = dict(vec)  # vec may become a representative: not reduced in place
        v[self.n + len(self.rows)] = 1
        return self.add(v)


@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    betti: int
    representatives: tuple[Cochain, ...]
    _complex: None | Complex = field(default=None, compare=False, repr=False)
    _quotient: None | _Quotient = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.betti != self.dim_cocycles - self.dim_coboundaries:
            raise EngineError("betti must equal dim cocycles - dim coboundaries")


def _degree(c: Cochain, what: str) -> int:
    degrees = {m.degree for m, _ in c.terms}
    if len(degrees) != 1:
        raise InputError(f"{what} requires a Z-homogeneous cochain")
    return degrees.pop()


def cohomology(
    q: QuadraticLieSuperalgebra | LieSuperalgebra,
    k: int,
    *,
    verify: bool = True,
) -> CohomologyResult:
    """H^k = Ker delta_k / Im delta_{k-1} with echelonized representatives,
    derived on each call from the delta_k and echelons the complex keeps.

    Only the blocks of inner weight 0 are eliminated (``Complex.delta``);
    the others add dim Z^k = dim B^k (``Complex.acyclic_dim``) and no
    representative.  The reduced echelon basis of a direct sum of spaces
    on disjoint coordinates is the union of theirs, so the cocycles kept,
    and the representatives among them, are those of the whole C^k."""
    cx = _complex(q)
    cx.check_size(k, "cohomology degree")
    d_k = cx.delta(k, verify)
    src = d_k.source
    rows: dict[int, dict[int, Rat]] = {}
    for j, col in enumerate(d_k.columns):
        for i, x in col.items():
            rows.setdefault(i, {})[j] = x
    cocycles = reduced_kernel(list(rows.values()), src.dimension)
    quotient = _Quotient(src, cx.image(k - 1, verify) if k else None)
    reps = [v for v in cocycles if quotient.add_cocycle(v)]
    n_z, n_b = len(cocycles), len(quotient.boundary.rows)
    # rank-nullity, the rank taken over delta_k's columns: a second route,
    # independent of the row elimination behind the kernel
    if src.dimension != len(cx.image(k, verify).rows) + n_z:
        raise EngineError("rank-nullity violated in cohomology assembly")
    if n_b + len(reps) > n_z:
        raise InputError(
            f"B^{k} is not inside Z^{k}: delta_{k} o delta_{k - 1} != 0, "
            "so the bracket fails super Jacobi"
        )
    acyclic = cx.acyclic_dim(k)
    return CohomologyResult(
        degree=k,
        dim_cochains=cochain_dimension(cx.basis, k),
        dim_cocycles=n_z + acyclic,
        dim_coboundaries=n_b + acyclic,
        betti=n_z - n_b,
        representatives=tuple(src.from_coordinates(cx.basis, v) for v in reps),
        _complex=cx,
        _quotient=quotient,
    )


def betti_table(
    q: QuadraticLieSuperalgebra | LieSuperalgebra,
    k_max: int,
    *,
    verify: bool = True,
) -> list[CohomologyResult]:
    """Cohomology in degrees 0..k_max over one complex: each delta_k is
    built once."""
    cx = _complex(q)
    cx.check_size(k_max)
    return [cohomology(q, k, verify=verify) for k in range(k_max + 1)]


def is_cocycle(q: QuadraticLieSuperalgebra | LieSuperalgebra, c: Cochain) -> bool:
    cx = _complex(q, c)
    return differential_direct(cx.algebra, c).is_zero


def is_coboundary(q: QuadraticLieSuperalgebra | LieSuperalgebra, c: Cochain) -> bool:
    """True iff c = delta(b) for some cochain b (c must be Z-homogeneous).

    delta keeps the block key (``Complex.key``).  c's terms in the built
    part are reduced against B^k there (``Complex.image``); the others are
    a coboundary exactly when they are delta(b) for the witness b, the sum
    of -i_x(term) / s over them (Cartan: s != 0 is the term's inner weight
    for some (x, w) of ``Complex.torus``), checked by one differential.
    """
    cx = _complex(q, c)
    if c.is_zero:
        return True
    k = _degree(c, "coboundary test")
    if k == 0:
        return False
    cx.check_size(k - 1)
    index = cx.built(k)._index
    if cx.image(k - 1, False).remainder({index[m]: _num(a) for m, a in c.terms if m in index}):
        return False
    rest, witness = tuple((m, a) for m, a in c.terms if m not in index), []
    for m, a in rest:
        x, s = next((x, s) for x, w in cx.torus if (s := sum(w[t] for t in m.even + m.odd)))
        witness += ((x.get(t, 0), part) for t, part in _contractions([(m, -a / s)]).items())
    return differential_direct(cx.algebra, _cochain(cx.basis, _combination(witness))).terms == rest


def class_vector(
    q: QuadraticLieSuperalgebra | LieSuperalgebra,
    c: Cochain,
    *,
    result: CohomologyResult | None = None,
) -> list[Rat]:
    """Coordinates of the class [c] in the representative basis of H^k.

    Raises InputError when c is not a cocycle of pure degree k, or when
    ``result`` is not a cohomology() in degree k of an algebra with this
    basis and these structure constants.  With a ``result``, c is tested
    on the result's complex; without one, H^k is derived anew on each
    call, so pass ``result=`` to reuse it.  The terms of c outside the
    result's blocks of inner weight 0 are dropped: delta keeps the inner
    weight, so they make a cocycle of acyclic blocks, a coboundary.
    """
    cx = _complex(q, c)
    if result is not None:
        rcx, g = result._complex if isinstance(result, CohomologyResult) else None, cx.algebra
        # the same basis and structure constants give the same delta
        if rcx is None or rcx.algebra is not g and (
            (rcx.basis, rcx.algebra.constants) != (g.basis, g.constants)
        ):
            raise InputError("result is not a cohomology() of this algebra")
        cx = rcx
    if c.is_zero:
        if result is None:
            raise InputError("class_vector of 0 needs an explicit result")
        return [Fraction(0)] * result.betti
    k = _degree(c, "class_vector")
    if not is_cocycle(cx.q, c):
        raise InputError("class_vector requires a cocycle")
    if result is None:
        result = cohomology(cx.q, k, verify=False)
    if result.degree != k:
        raise InputError(f"result is for degree {result.degree}, not {k}")
    quotient = result._quotient
    index, n = quotient.source._index, quotient.n
    v = quotient.remainder({index[m]: x for m, x in c.terms if m in index})
    if min(v, default=n) < n:
        raise EngineError("cocycle does not decompose over B + representatives")
    return [_frac(-v.get(n + i, 0)) for i in range(result.betti)]


def cohomology_report(
    q: QuadraticLieSuperalgebra | LieSuperalgebra,
    k_max: int,
    *,
    name: str | None = None,
    include_representatives: bool = True,
    verify: bool = True,
) -> dict:
    """Machine-readable cohomology report (schema 1)."""
    results = betti_table(q, k_max, verify=verify)
    rows = []
    for r in results:
        row = {
            "degree": r.degree,
            "dim_cochains": r.dim_cochains,
            "dim_cocycles": r.dim_cocycles,
            "dim_coboundaries": r.dim_coboundaries,
            "betti": r.betti,
        }
        if include_representatives:
            row["representatives"] = [str(c) for c in r.representatives]
        rows.append(row)
    report = {"schema": 1, "kind": "cohomology", "max_degree": k_max, "table": rows}
    if name is not None:
        report["name"] = name
    return report
