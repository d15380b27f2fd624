"""Exact cohomology of the super-exterior complex.

One ``Complex`` per algebra holds what the engine reads more than once
per degree: the built parts of the cochain spaces and each delta_k as
exact sparse columns between them.  What depends on the algebra alone
(its bracket table, delta(t*), the inner torus, I and I's side of
{I, .}) is kept on the algebra object.  Kernels, images and
quotients are computed by exact sparse elimination over the rationals.

When some even x has a diagonal ad x with a nonzero weight (the inner
torus), Cartan's formula L_x = delta i_x + i_x delta makes every block
of nonzero inner weight acyclic: only the blocks of inner weight 0 are
built and eliminated, and the others are counted.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from weakref import WeakValueDictionary, ref

from ._frozen import Frozen
from .algebra import GradedBasis, LieSuperalgebra, diagonal_weights, inner_torus
from .cochains import (
    DEGREE_LIMIT,
    Cochain,
    Monomial,
    _basis_of,
    _check_cochain,
    _cochain,
    _combination,
    _delta,
    _enumerate,
    _fits,
    _poisson,
    _top,
    _unit,
    _unpack,
)
from .errors import EngineError, InputError, ResourceLimitError
from .linalg import Echelon, Rat, _check_degree, _frac, reduced_kernel
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


class CochainBasis(Frozen):
    """Deterministic ordered monomial basis of C^k, or of the part of it a
    complex builds: ``keys`` are its monomials packed (``cochains._pack``)
    in basis order, and ``index`` maps each to its position.  The API's
    ``Monomial``s, ``monomials``, are decoded on first read."""

    _fields = ("degree", "keys", "basis")
    _shown = ("degree", "keys")

    def __init__(self, degree: int, keys: tuple[int, ...], basis: GradedBasis):
        self.__dict__.update(degree=degree, keys=keys, basis=basis)

    @cached_property
    def index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.keys)}

    @cached_property
    def monomials(self) -> tuple[Monomial, ...]:
        return tuple(_unpack(self.basis.even_dim, m) for m in self.keys)

    @property
    def dimension(self) -> int:
        return len(self.keys)


def cochain_basis(g: LieSuperalgebra | GradedBasis, k: int) -> CochainBasis:
    basis = _basis_of(g, (GradedBasis, LieSuperalgebra, QuadraticLieSuperalgebra))
    _check_degree(k)
    return CochainBasis(k, tuple(_enumerate(basis, k, {}, {})), basis)


class DifferentialMatrix(Frozen):
    """delta_k as columns {target index: nonzero}, one per source monomial,
    in the kernels' form (``linalg._num``) or, at the API, as Fractions;
    a complex's view shares its source and target ``CochainBasis``."""

    _fields = ("source", "target", "columns")

    def __init__(self, source: CochainBasis, target: CochainBasis, columns: tuple[dict[int, Rat | int], ...]):
        self.__dict__.update(source=source, target=target, columns=columns)

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


def _certified_torus(g: LieSuperalgebra) -> list[tuple[dict[int, Rat | int], tuple[Rat | int, ...]]]:
    """The inner torus of g (``inner_torus``): pairs (x, w), [x, e_t] = w_t e_t.

    Certificate, on every build: i_x delta(t*) = -w_t t* for each x and
    letter t.  i_x t* is a constant, so this is Cartan's
    L_x = delta i_x + i_x delta on the generators, and both sides are even
    derivations: L_x multiplies a monomial by minus the sum w(m) of its
    letters' weights (its inner weight).  With delta(delta(t*)) = 0 for
    every t (super Jacobi), checked too, a block of inner weight s != 0 is
    acyclic: c = delta(-i_x c / s) for every cocycle c there.
    """
    torus, ne, labels = inner_torus(g), g.basis.even_dim, g.basis.labels
    for t, image in enumerate(g._duals) if torus else ():
        terms = [(m, v) for _, m, _, v in image]
        for x, w in torus:  # i_x by x's letters, all even: i_{e_i} deletes i at position p with (-1)^p
            got = _combination((a, {m ^ 1 << i: -c if (m & (1 << i) - 1).bit_count() % 2 else c
                                    for m, c in terms if m >> i & 1}) for i, a in x.items())
            if {m: c for m, c in got.items() if c} != ({_unit(ne, t): -w[t]} if w[t] else {}):
                raise EngineError(f"i_x delta({labels[t]}*) != -w t*: the inner torus is wrong")
        if _delta(g, terms):
            raise InputError(f"delta(delta({labels[t]}*)) != 0, so the bracket fails super Jacobi")
    return torus


def _block_weights(g: LieSuperalgebra) -> tuple[list[int], list[int]]:
    """Per letter t, two packed ints: its inner weight, w_t for each
    (x, w) of the inner torus, and its block weight, those then its
    ``diagonal_weights`` coordinates.  Each column is scaled once by a
    positive int to ints and given a field wide enough that a sum over
    DEGREE_LIMIT letters stays inside it, so the packed sum of letters'
    weights is the packed vector of their sums, and equal sums are equal
    ints.  ad x is a diagonal derivation, so a column w splits no block:
    it only carries the inner weight into every block key
    (``Complex.built``)."""
    columns = [*(w for _, w in g._torus), *zip(*(row[:-1] for row in diagonal_weights(g)))]
    columns = [[x.numerator * (s // x.denominator) for x in col] for col in columns for s in [lcm(*(y.denominator for y in col))]]
    shift = (2 * DEGREE_LIMIT * max((abs(x) for col in columns for x in col), default=0)).bit_length() + 1
    inner, weight = ([sum(col[t] << shift * i for i, col in enumerate(cols)) for t in range(g.basis.dim)]
                     for cols in (columns[: len(g._torus)], columns))
    return inner, weight


class Complex:
    """The cochain complex C(g) of the algebra ``q``, delta = -{I, .} when
    it is quadratic.  It keeps only per-degree parts, each built once, on
    first use: the built part of each C^k (``built``), each delta_k
    (``delta``) and the echelon of its columns (``image``).  The built
    parts join two tables kept by size, listed once each: the even
    a-subsets (``_evens``) and the odd s-multisets by inner weight
    (``_odds``); ``check_size`` computes each dim C^k once (``_dims``).  Every
    function of this module reaches it through ``_complex``: one complex
    per algebra object, alive while a caller or a CohomologyResult holds
    it.  Algebras are treated as immutable values.  ``check_size`` is the
    monomial guard each of those functions runs before any work.
    """

    def __init__(self, q: QuadraticLieSuperalgebra | LieSuperalgebra) -> None:
        self.basis = _basis_of(q, (QuadraticLieSuperalgebra, LieSuperalgebra))
        self.q = q
        self.algebra = q.algebra if isinstance(q, QuadraticLieSuperalgebra) else q
        self._dims: list[int] = []  # dim C^k for each k below its length, computed once by check_size
        self._evens, self._odds = {}, {}  # the even and odd tables _enumerate lists built(k) from, by size
        self._built: dict[int, CochainBasis] = {}
        self._keys: dict[int, dict[int, int]] = {}  # the block keys of built(k), with a torus
        # degree -> (delta_k, built with the cross-check or not)
        self._deltas: dict[int, tuple[DifferentialMatrix, bool]] = {}
        self._images: dict[int, Echelon] = {}

    def built(self, k: int) -> CochainBasis:
        """The packed monomials of C^k of inner weight 0, in basis order, or
        C^k itself without an inner torus (``_enumerate``): the source of
        delta_k and the target of delta_{k-1}, made once, on first use.
        With an inner torus ``_keys[k]`` keeps each one's block key, which
        delta keeps."""
        if k not in self._built:
            torus = self.algebra._torus
            keys = _enumerate(self.basis, k, self._evens, self._odds, *(self.algebra._weights if torus else ()))
            if torus:
                self._keys[k] = keys
            self._built[k] = CochainBasis(k, tuple(keys), self.basis)
        return self._built[k]

    def acyclic_dim(self, k: int) -> int:
        """dim Z^k = dim B^k over the blocks of nonzero inner weight (0
        without an inner torus).  They are acyclic (``_certified_torus``), so
        dim Z^k_w = sum_{j<k} (-1)^(k-1-j) dim C^j_w, counted with no
        elimination: dim C^j (``cochain_dimension``) less the built part."""
        if not self.algebra._torus:
            return 0
        return sum(
            (-1) ** (k - 1 - j) * (self._dims[j] - self.built(j).dimension)
            for j in range(k)
        )

    def check_size(self, k_max: int, what: str = "k_max") -> None:
        """Refuse, before any work, a k_max that is not a degree (named
        ``what`` in the message), a k_max + 1 past the degree a packed
        monomial holds (``cochains.DEGREE_LIMIT``) and a dim C^k over
        ``MONOMIAL_LIMIT`` for k <= k_max + 1, each kept in ``_dims``."""
        _check_degree(k_max, what)
        if k_max >= DEGREE_LIMIT:
            raise ResourceLimitError(f"delta_{k_max} reaches degree {k_max + 1}, past the packed monomials' limit {DEGREE_LIMIT}")
        for k in range(len(self._dims), k_max + 2):
            if (dim := cochain_dimension(self.basis, k)) > MONOMIAL_LIMIT:
                raise ResourceLimitError(f"dim C^{k} = {dim} exceeds the monomial limit {MONOMIAL_LIMIT}")
            self._dims.append(dim)

    def delta(self, k: int, verify: bool = True) -> DifferentialMatrix:
        """delta_k from ``built(k)`` to ``built(k + 1)``, built on first use
        and once more if the cross-check is asked for and the first build
        had none; no other code makes its columns.  Column j is the
        zero-free accumulator of ``differential_direct``'s kernel on source
        monomial j, kept as it comes, {target index: int | Fraction}.  When
        ``verify`` is true and q is quadratic, the accumulator of
        -{I, monomial} (``differential_via_poisson``'s kernel) must equal it.

        delta keeps the weight of every diagonal derivation and the
        sym-parity (Hochschild-Serre), so it maps each block into the block
        with the same key.  Certificate, with an inner torus: every term of
        every column has its source's key among those ``built`` keeps for
        C^{k+1}, or the torus or delta is wrong (EngineError).
        """
        hit = self._deltas.get(k)
        if hit is not None and (hit[1] or not verify):
            return hit[0]
        self.check_size(k)
        q, g, ne = self.q, self.algebra, self.basis.even_dim
        three = verify and isinstance(q, QuadraticLieSuperalgebra) and q._three_form_left
        src, tgt = self.built(k), self.built(k + 1)
        index, columns, keys, target_keys = tgt.index, [], self._keys.get(k), self._keys.get(k + 1)
        for m in src.keys:
            image = _delta(g, ((m, 1),))
            if three and image != _poisson(three, ((m, 1),), -1):
                raise EngineError(f"differential_direct and differential_via_poisson disagree on {_unpack(ne, m)} in degree {k}")
            column, key = {}, None if keys is None else keys[m]
            for mm, x in image.items():
                if key is not None and target_keys.get(mm) != key:
                    raise EngineError(f"delta of {_unpack(ne, m)} leaves its weight block: the torus or delta is wrong")
                column[index[mm]] = x
            columns.append(column)
        d = DifferentialMatrix(src, tgt, tuple(columns))
        self._deltas[k] = (d, verify)
        return d

    def image(self, k: int, verify: bool = True) -> Echelon:
        """The echelon of copies of delta_k's columns, B^{k+1} on the built
        part of C^{k+1}, eliminated once, on first use.  A rebuild of delta_k
        with the cross-check has the same columns, so it keeps serving."""
        d = self.delta(k, verify)
        if k not in self._images:
            self._images[k] = Echelon(dict(c) for c in d.columns)
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
    """delta_k from the built part of C^k to that of C^{k+1}, with every
    entry a Fraction: a view of the delta_k the complex of q builds and
    keeps (``Complex.delta``, with its cross-check and certificate)."""
    d = _complex(q).delta(k, verify)
    return DifferentialMatrix(d.source, d.target, tuple({i: _frac(x) for i, x in c.items()} for c in d.columns))


class _Quotient(Echelon):
    """One row per representative of Z^k / B^k, over ``boundary``, the
    echelon of B^k (``Complex.image``), which it reads and never changes.
    Representative i is fed with a 1 in the tag column n + i (n = dim of
    the built part of C^k) that row operations carry along, so a cocycle
    reduced to zero in the cochain columns leaves minus its class vector
    in the tag columns, and nothing exactly when it is a coboundary."""

    def __init__(self, n: int, boundary: Echelon | None) -> None:
        super().__init__(limit=n)
        self.n, self.boundary = n, boundary or Echelon()

    def remainder(self, v: dict[int, Rat]) -> dict[int, Rat]:
        """v cleared at B^k's pivots, then at the representatives'."""
        return super().remainder(self.boundary.remainder(v))

    def add_cocycle(self, vec: dict[int, Rat]) -> bool:
        v = dict(vec)  # vec may become a representative: not reduced in place
        v[self.n + len(self.rows)] = 1
        return self.add(v)


class CohomologyResult(Frozen):
    """H^k; ``_complex`` and ``_quotient``, which class queries read, are
    neither compared nor shown."""

    _fields = ("degree", "dim_cochains", "dim_cocycles", "dim_coboundaries", "betti", "representatives")

    def __init__(self, degree: int, dim_cochains: int, dim_cocycles: int, dim_coboundaries: int, betti: int,
                 representatives: tuple[Cochain, ...], _complex: None | Complex = None, _quotient: None | _Quotient = None):
        if betti != dim_cocycles - dim_coboundaries:
            raise EngineError("betti must equal dim cocycles - dim coboundaries")
        self.__dict__.update(degree=degree, dim_cochains=dim_cochains, dim_cocycles=dim_cocycles,
                             dim_coboundaries=dim_coboundaries, betti=betti, representatives=representatives,
                             _complex=_complex, _quotient=_quotient)


def _degree(c: Cochain, what: str) -> int:
    if len(degrees := c._degrees) != 1:
        raise InputError(f"{what} requires a Z-homogeneous cochain")
    return next(iter(degrees))


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
    quotient = _Quotient(src.dimension, cx.image(k - 1, verify) if k else None)
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
        dim_cochains=cx._dims[k],
        dim_cocycles=n_z + acyclic,
        dim_coboundaries=n_b + acyclic,
        betti=n_z - n_b,
        representatives=tuple(_cochain(cx.basis, {src.keys[i]: x for i, x in v.items()}) for v in reps),
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


def _part(cx: Complex, c: Cochain, k: int) -> list:
    """c's degree-k terms split against ``cx.built(k)``: [those in it as
    {index: value}, the others as (packed monomial, value) pairs, whether
    delta of the others is 0 (None until ``_rest_closed`` asks)].  The
    split is kept on c with a weak reference to cx, so that the class
    queries on c share it; a dead complex, or another one, splits again."""
    held = c.__dict__.get("_split")
    if held is None or held[0]() is not cx:
        held = c.__dict__["_split"] = (ref(cx), {})
    if (part := held[1].get(k)) is None:
        index, built, rest = cx.built(k).index, {}, []
        for m, a in c._degrees.get(k, {}).items():
            if (i := index.get(m)) is None:
                rest.append((m, a))
            else:
                built[i] = a
        part = held[1][k] = [built, rest, None]
    return part


def _rest_closed(cx: Complex, part: list, k: int) -> bool:
    """Whether delta of the degree-k terms of a ``_part`` outside the built
    part is 0: one call of ``differential_direct``'s kernel, on first ask,
    once delta of them is known to fit a packed monomial."""
    if part[2] is None:
        if part[1]:
            _fits(k + 1)
        part[2] = not part[1] or not _delta(cx.algebra, part[1])
    return part[2]


def is_cocycle(q: QuadraticLieSuperalgebra | LieSuperalgebra, c: Cochain) -> bool:
    """True iff delta(c) = 0; c may mix degrees.

    delta keeps the degree and the block key (``Complex.built``), so the
    terms of c in each ``Complex.built(k)`` map into built(k + 1) and the
    others outside it: each part is checked on its own.  In a degree whose
    delta_k the complex already keeps, c's split (``_part``) is read: its
    built part off delta_k's columns, one exact sparse sum per degree, and
    the rest by ``_rest_closed``.  The terms of every other degree go
    through one call of ``differential_direct``'s kernel.  No delta is
    built here.
    """
    cx = _complex(q, c)
    _fits(_top(c) + 1)
    kept, cold = [], []
    for k, terms in c._degrees.items():
        if (hit := cx._deltas.get(k)) is None:  # (delta_k, verified) or None
            cold.extend(terms.items())
            continue
        columns, part = hit[0].columns, _part(cx, c, k)
        if any(_combination((a, columns[i]) for i, a in part[0].items()).values()):
            return False
        kept.append((k, part))
    if not all(_rest_closed(cx, part, k) for k, part in kept):
        return False
    return not cold or not _delta(cx.algebra, cold)


def is_coboundary(q: QuadraticLieSuperalgebra | LieSuperalgebra, c: Cochain) -> bool:
    """True iff c = delta(b) for some cochain b (c must be Z-homogeneous).

    delta keeps the block key (``Complex.built``).  c's terms in the built
    part (``_part``) are reduced against B^k there (``Complex.image``).  The
    others lie in blocks of nonzero inner weight, which are acyclic
    (``_certified_torus``): they are a coboundary exactly when delta of
    them is 0 (``_rest_closed``).
    """
    cx = _complex(q, c)
    if c.is_zero:
        return True
    k = _degree(c, "coboundary test")
    if k == 0:
        return False
    cx.check_size(k - 1)
    part = _part(cx, c, k)
    return not cx.image(k - 1, False).remainder(dict(part[0])) and _rest_closed(cx, part, k)


def class_vector(
    q: QuadraticLieSuperalgebra | LieSuperalgebra,
    c: Cochain,
    *,
    result: CohomologyResult | None = None,
) -> list[Rat]:
    """Coordinates of the class [c] in the representative basis of H^k.

    ``result`` is required: a cohomology() in degree k of an algebra with
    this basis and these structure constants, whose quotient is read; no
    H^k is derived here.  Raises InputError without one, or when c is not
    a cocycle of pure degree k.  c's terms in the built part are reduced
    over B^k and the representatives.  The others lie in acyclic blocks of
    nonzero inner weight (``_certified_torus``): they are dropped once
    delta of them is 0.  ``is_cocycle`` runs only when the built part does
    not reduce, to tell a non-cocycle from a failed decomposition
    (EngineError).
    """
    cx = _complex(q, c)
    rcx, g = result._complex if isinstance(result, CohomologyResult) else None, cx.algebra
    # the same basis and structure constants give the same delta
    if rcx is None or rcx.algebra is not g and (
        (rcx.basis, rcx.algebra.constants) != (g.basis, g.constants)
    ):
        raise InputError("result is not a cohomology() of this algebra")
    if c.is_zero:
        return [Fraction(0)] * result.betti
    k = _degree(c, "class_vector")
    if result.degree != k:
        raise InputError(f"result is for degree {result.degree}, not {k}")
    part, quotient = _part(rcx, c, k), result._quotient
    v, n = quotient.remainder(dict(part[0])), quotient.n
    failed = min(v, default=n) < n
    if not _rest_closed(rcx, part, k) or failed and not is_cocycle(rcx.q, c):
        raise InputError("class_vector requires a cocycle")
    if failed:
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
