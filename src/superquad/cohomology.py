"""Exact cohomology of the super-exterior complex.

One ``Complex`` per algebra holds what the engine reads more than once:
the cochain bases, the delta(t*) table, the torus blocks, the inner
torus, I, and each delta_k as exact sparse columns between
enumerated monomial bases.  Kernels, images and quotients are computed
by exact sparse elimination over the rationals.

When some even x has a diagonal ad x with a nonzero weight (the inner
torus), Cartan's formula L_x = delta i_x + i_x delta makes every block
of nonzero inner weight acyclic: only the blocks of inner weight 0 are
built and eliminated, and the others are counted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from types import MappingProxyType
from typing import Collection, Mapping
from weakref import ref

from .algebra import GradedBasis, LieSuperalgebra, diagonal_weights, inner_torus
from .cochains import (
    Cochain,
    Monomial,
    _cochain,
    _combination,
    _contractions,
    _dual_differentials,
    _letters,
    _poisson_left,
    _PoissonLeft,
    associated_three_form,
    differential_direct,
    differential_via_poisson,
    monomials_of_degree,
)
from .errors import EngineError, InputError, ResourceLimitError
from .linalg import Echelon, Rat, _frac, _num, _sparse_rows, rank, reduced_kernel
from .quadratic import QuadraticLieSuperalgebra

__all__ = [
    "CochainBasis",
    "Complex",
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

DEFAULT_MONOMIAL_LIMIT = 200000


def cochain_dimension(basis: GradedBasis, k: int) -> int:
    """dim C^k = sum_m C(dim even, m) * C(dim odd + k - m - 1, k - m)."""
    if k < 0:
        raise InputError("cochain degree must be non-negative")
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

    def index_map(self) -> Mapping[Monomial, int]:
        """Monomial -> position, a read-only view of the map built once."""
        return MappingProxyType(self._index)

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
    basis = g if isinstance(g, GradedBasis) else g.basis
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

    def rank(self) -> int:
        return rank(self.columns)


class Complex:
    """The cochain complex C(g) of one algebra, delta = -{I, .} when it is
    quadratic.  Each part is built once, on first use, and kept: the basis
    of each C^k and the block key of each monomial (``block``), the images
    delta(t*) of the degree-1 duals, the torus of diagonal derivations,
    the inner torus (``torus``), I and I's side of {I, .}, each delta_k
    (on the blocks of inner weight 0 only, see ``zero_blocks``), and each
    H^k while a caller holds it.  The caller holds the complex; every
    function of this module takes it in place of the algebra, or builds
    one for the call.
    A delta_k or H^k built without the -{I, .} cross-check never serves a
    call that asks for it.  ``check_size`` is the monomial guard each of
    those functions runs before any work.
    """

    def __init__(self, q: QuadraticLieSuperalgebra | LieSuperalgebra) -> None:
        self.quadratic = q if isinstance(q, QuadraticLieSuperalgebra) else None
        self.algebra = q if self.quadratic is None else q.algebra
        self.basis = self.algebra.basis
        self._sized: dict[int, int] = {}  # limit -> largest k_max passed
        self._cochains: dict[int, CochainBasis] = {}
        self._keys: dict[int, tuple[tuple, ...]] = {}
        # degree -> (delta_k or H^k, built with the cross-check or not);
        # H^k is held weakly, since it holds its complex
        self._deltas: dict[int, tuple[DifferentialMatrix, bool]] = {}
        self._results: dict[int, tuple[ref, bool]] = {}
        self._zero: dict[int, tuple[set[tuple], CochainBasis]] = {}

    @cached_property
    def duals(self) -> dict[int, dict[Monomial, Rat]]:
        return _dual_differentials(self.algebra)

    @cached_property
    def weights(self) -> list[tuple[Rat | int, ...]]:
        return diagonal_weights(self.algebra)

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
        torus, ne, duals = inner_torus(self.algebra), self.basis.even_dim, self.duals
        for t, image in duals.items() if torus else ():
            contractions = _contractions(image.items())
            for x, w in torus:
                got = _combination((a, contractions.get(i, {})) for i, a in x.items())
                if {m: c for m, c in got.items() if c} != ({_letters(ne, (t,)): -w[t]} if w[t] else {}):
                    raise EngineError(f"i_x delta({self.basis.labels[t]}*) != -w t*: the inner torus is wrong")
            if not differential_direct(self.algebra, _cochain(self.basis, image), duals=duals).is_zero:
                raise InputError(f"delta(delta({self.basis.labels[t]}*)) != 0, so the bracket fails super Jacobi")
        return torus

    def zero_blocks(self, k: int) -> tuple[set[tuple], CochainBasis] | None:
        """The blocks of C^k of inner weight 0 and their monomials, in basis
        order: delta_k is built on those only.  None without an inner
        torus, where delta_k is built on all of C^k.  A block's inner
        weight, the sum of its letters' w for each x, is read off its
        first monomial: the weights of ad x are those of a diagonal
        derivation, so the block key fixes them."""
        if not self.torus:
            return None
        if k not in self._zero:
            monomials, keys = self.cochains(k).monomials, self.keys(k)
            zero: dict[tuple, bool] = {}
            for m, key in zip(monomials, keys):
                if key not in zero:
                    zero[key] = not any(sum(w[t] for t in m.even + m.odd) for _, w in self.torus)
            blocks = {key for key, z in zero.items() if z}
            self._zero[k] = blocks, CochainBasis(k, tuple(m for m, key in zip(monomials, keys) if key in blocks))
        return self._zero[k]

    def acyclic_dim(self, k: int) -> int:
        """dim Z^k = dim B^k over the blocks of nonzero inner weight (0
        without an inner torus).  Those blocks are acyclic (``torus``), so
        dim Z^k_w = sum_{j<k} (-1)^(k-1-j) dim C^j_w, counted with no
        elimination.  dim C^j_0 is the inner-weight-0 coefficient of
        prod_even (1 + z u^w_t) prod_odd 1/(1 - z u^w_t) at z^j, so no
        C^j below the degrees asked for is enumerated."""
        if not self.torus:
            return 0
        zero = (0,) * len(self.torus)
        layers: list[dict[tuple, int]] = [{zero: 1}] + [{} for _ in range(k - 1)]
        for t, parity in enumerate(self.basis.parities):
            wt = tuple(w[t] for _, w in self.torus)
            # an odd letter may repeat: its degree-j layer reads its own j - 1 layer
            for j in range(1, k) if parity else range(k - 1, 0, -1):
                layer = layers[j]
                for w, n in layers[j - 1].items():
                    key = tuple(a + b for a, b in zip(w, wt))
                    layer[key] = layer.get(key, 0) + n
        return sum(
            (-1) ** (k - 1 - j) * (cochain_dimension(self.basis, j) - layers[j].get(zero, 0))
            for j in range(k)
        )

    @cached_property
    def three_form(self) -> Cochain:
        return associated_three_form(self.quadratic)

    @cached_property
    def left(self) -> _PoissonLeft:
        return _poisson_left(self.quadratic, self.three_form)

    def check_size(self, k_max: int, limit: int = DEFAULT_MONOMIAL_LIMIT) -> None:
        """Refuse, before any work, a negative k_max and a dim C^k over
        ``limit`` for k <= k_max + 1."""
        if k_max < 0:
            raise InputError("k_max must be non-negative")
        if k_max > self._sized.get(limit, -1):
            for k in range(k_max + 2):
                if (dim := cochain_dimension(self.basis, k)) > limit:
                    raise ResourceLimitError(f"dim C^{k} = {dim} exceeds the monomial limit {limit}")
            self._sized[limit] = k_max

    def cochains(self, k: int) -> CochainBasis:
        if k not in self._cochains:
            self._cochains[k] = cochain_basis(self.basis, k)
        return self._cochains[k]

    def block(self, m: Monomial) -> tuple:
        """The block of m: the sums of its letters' weights, the last one,
        the number of odd letters, taken mod 2 (the sym-parity)."""
        letters = m.even + m.odd
        if not letters:
            return (0,) * len(self.weights[0])
        *lam, odd = map(sum, zip(*map(self.weights.__getitem__, letters)))
        return (*lam, odd % 2)

    def keys(self, k: int) -> tuple[tuple, ...]:
        """The block of each monomial of C^k, in basis order."""
        if k not in self._keys:
            self._keys[k] = tuple(map(self.block, self.cochains(k).monomials))
        return self._keys[k]

    def delta(self, k: int, verify: bool = True) -> DifferentialMatrix:
        """delta_k, built by ``differential_matrix`` on first use, and once
        more if the cross-check is asked for and the first build had none.
        With an inner torus it maps the monomials of inner weight 0 of C^k
        to those of C^{k+1} (``zero_blocks``), the source of delta_{k+1}."""
        hit = self._deltas.get(k)
        if hit is None or verify and not hit[1]:
            if (zero := self.zero_blocks(k)) is None:
                d = differential_matrix(self, k, verify=verify)
            else:
                d = differential_matrix(self, k, verify=verify, blocks=zero[0])
                target = self.zero_blocks(k + 1)[1]
                index, reached = target._index, d.target.monomials
                columns = tuple({index[reached[i]]: x for i, x in col.items()} for col in d.columns)
                d = DifferentialMatrix(zero[1], target, columns)
            hit = self._deltas[k] = (d, verify)
        return hit[0]


def _complex(
    q: Complex | QuadraticLieSuperalgebra | LieSuperalgebra, c: Cochain | None = None
) -> Complex:
    """The complex of q, checked to be over the basis the cochain c lives over."""
    cx = q if isinstance(q, Complex) else Complex(q)
    if c is not None and c.basis != cx.basis:
        raise InputError("cochain is over another basis than the algebra")
    return cx


def differential_matrix(
    q: Complex | QuadraticLieSuperalgebra | LieSuperalgebra,
    k: int,
    *,
    verify: bool = True,
    blocks: Collection[tuple] | None = None,
) -> DifferentialMatrix:
    """Assemble delta_k column by column; no other code makes its columns.

    Each column is differential_direct of a basis monomial, with the
    complex's delta(t*) table.  When ``verify`` is true and q is
    quadratic, every column is recomputed in full as -{I, monomial} from
    the complex's side of I, and the two must agree exactly.

    ``blocks`` keeps only the source monomials whose ``Complex.block`` is
    in it; the target is then the monomials the columns reach, in order
    of appearance.  delta keeps the weight of every diagonal derivation
    and the sym-parity (Hochschild-Serre), so it maps each block into the
    block with the same key.  Certificate of a restricted build: every
    term of every column must lie in its source's block, or the torus or
    delta is wrong (EngineError).
    """
    cx = _complex(q)
    cx.check_size(k)
    g, duals, src = cx.algebra, cx.duals, cx.cochains(k)
    left = cx.left if verify and cx.quadratic is not None else None
    if blocks is None:
        sources = [(m, None) for m in src.monomials]
    else:
        sources = [(m, b) for m, b in zip(src.monomials, cx.keys(k)) if b in blocks]
        src = CochainBasis(k, tuple(m for m, _ in sources))
    images, block = [], cx.block
    for m, key in sources:
        c = _cochain(g.basis, {m: 1})
        image = differential_direct(g, c, duals=duals).terms
        if left is not None and image != differential_via_poisson(cx.quadratic, c, left=left).terms:
            raise EngineError(
                f"differential_direct and differential_via_poisson disagree on {m} in degree {k}"
            )
        if key is not None and any(block(mm) != key for mm, _ in image):
            raise EngineError(f"delta of {m} leaves its weight block {key}: the torus or delta is wrong")
        images.append(image)
    if blocks is None:
        tgt = cx.cochains(k + 1)
    else:  # the monomials the columns reach, in order of appearance
        tgt = CochainBasis(k + 1, tuple(dict.fromkeys(mm for image in images for mm, _ in image)))
    index = tgt._index
    return DifferentialMatrix(src, tgt, tuple({index[mm]: x for mm, x in image} for image in images))


class _Quotient(Echelon):
    """The echelon of B^k (the columns of delta_{k-1}), then one row per
    representative of Z^k / B^k.  Representative i is fed with a 1 in the
    tag column n + i (n = dim source) that row operations carry along, so
    a cocycle reduced to zero in the cochain columns leaves minus its
    class vector in the tag columns, and nothing exactly when it is a
    coboundary."""

    def __init__(self, source: CochainBasis, d_prev: DifferentialMatrix | None) -> None:
        self.source, self.n = source, source.dimension
        super().__init__(_sparse_rows(d_prev.columns) if d_prev else (), limit=self.n)
        self.dim_boundary = len(self.rows)

    def add_cocycle(self, vec: dict[int, Rat]) -> bool:
        v = dict(vec)  # vec may become a representative: not reduced in place
        v[self.n + len(self.rows) - self.dim_boundary] = 1
        return self.add(v)


@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    betti: int
    representatives: tuple[Cochain, ...]
    _complex: Complex | None = field(default=None, compare=False, repr=False)
    _quotient: _Quotient | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.betti != self.dim_cocycles - self.dim_coboundaries:
            raise EngineError("betti must equal dim cocycles - dim coboundaries")


def _degree(c: Cochain, what: str) -> int:
    degrees = {m.degree for m, _ in c.terms}
    if len(degrees) != 1:
        raise InputError(f"{what} requires a Z-homogeneous cochain")
    return degrees.pop()


def cohomology(
    q: Complex | QuadraticLieSuperalgebra | LieSuperalgebra,
    k: int,
    *,
    verify: bool = True,
) -> CohomologyResult:
    """H^k = Ker delta_k / Im delta_{k-1} with echelonized representatives,
    computed once per Complex while a caller holds the result (once more
    if the cross-check is asked for and the first computation had none).

    Only the blocks of inner weight 0 are eliminated (``Complex.delta``);
    the others add dim Z^k = dim B^k (``Complex.acyclic_dim``) and no
    representative.  The reduced echelon basis of a direct sum of spaces
    on disjoint coordinates is the union of theirs, so the cocycles kept,
    and the representatives among them, are those of the whole C^k."""
    if k < 0:
        raise InputError("cohomology degree must be non-negative")
    cx = _complex(q)
    cx.check_size(k)
    held, checked = cx._results.get(k, (None, False))
    if held is not None and (hit := held()) is not None and (checked or not verify):
        return hit
    d_k = cx.delta(k, verify)
    src = d_k.source
    rows: dict[int, dict[int, Rat]] = {}
    for j, col in enumerate(d_k.columns):
        for i, x in col.items():
            rows.setdefault(i, {})[j] = x
    cocycles = reduced_kernel(list(rows.values()), src.dimension)
    quotient = _Quotient(src, cx.delta(k - 1, verify) if k else None)
    reps = [v for v in cocycles if quotient.add_cocycle(v)]
    n_z, n_b = len(cocycles), quotient.dim_boundary
    # rank-nullity, the rank taken over delta_k's columns: a second route,
    # independent of the row elimination behind the kernel
    if src.dimension != rank(d_k.columns) + n_z:
        raise EngineError("rank-nullity violated in cohomology assembly")
    if n_b + len(reps) > n_z:
        raise InputError(
            f"B^{k} is not inside Z^{k}: delta_{k} o delta_{k - 1} != 0, "
            "so the bracket fails super Jacobi"
        )
    acyclic = cx.acyclic_dim(k)
    result = CohomologyResult(
        degree=k,
        dim_cochains=cx.cochains(k).dimension,
        dim_cocycles=n_z + acyclic,
        dim_coboundaries=n_b + acyclic,
        betti=n_z - n_b,
        representatives=tuple(src.from_coordinates(cx.basis, v) for v in reps),
        _complex=cx,
        _quotient=quotient,
    )
    cx._results[k] = (ref(result), verify)
    return result


def betti_table(
    q: Complex | QuadraticLieSuperalgebra | LieSuperalgebra,
    k_max: int,
    *,
    verify: bool = True,
    max_monomials: int = DEFAULT_MONOMIAL_LIMIT,
) -> list[CohomologyResult]:
    """Cohomology in degrees 0..k_max over one Complex: each delta_k is
    built once."""
    cx = _complex(q)
    cx.check_size(k_max, max_monomials)
    return [cohomology(cx, k, verify=verify) for k in range(k_max + 1)]


def is_cocycle(q: Complex | QuadraticLieSuperalgebra | LieSuperalgebra, c: Cochain) -> bool:
    cx = _complex(q, c)
    return differential_direct(cx.algebra, c, duals=cx.duals).is_zero


def is_coboundary(q: Complex | QuadraticLieSuperalgebra | LieSuperalgebra, c: Cochain) -> bool:
    """True iff c = delta(b) for some cochain b (c must be Z-homogeneous).

    delta maps each block of C^{k-1} into the block of C^k with the same
    key, so c is a coboundary exactly when it is delta of a cochain in the
    blocks of c's own terms: only those columns of delta_{k-1} are built
    (``differential_matrix`` with ``blocks``, whose certificate runs).
    """
    cx = _complex(q, c)
    if c.is_zero:
        return True
    k = _degree(c, "coboundary test")
    if k == 0:
        return False
    cx.check_size(k - 1)
    d = differential_matrix(cx, k - 1, verify=False, blocks={cx.block(m) for m, _ in c.terms})
    index, target = d.target._index, {}
    for m, x in c.terms:
        if m not in index:
            return False
        target[index[m]] = _num(x)
    return not Echelon(_sparse_rows(d.columns)).remainder(target)


def class_vector(
    q: Complex | QuadraticLieSuperalgebra | LieSuperalgebra,
    c: Cochain,
    *,
    result: CohomologyResult | None = None,
) -> list[Rat]:
    """Coordinates of the class [c] in the representative basis of H^k.

    Raises InputError when c is not a cocycle of pure degree k, or when
    ``result`` is not a cohomology() in degree k of an algebra with this
    basis and these structure constants.  With a ``result``, c is tested
    on the result's Complex.  The terms of c outside the result's blocks
    of inner weight 0 are dropped: delta keeps the inner weight, so they
    make a cocycle of acyclic blocks, a coboundary.
    """
    cx = _complex(q, c)
    if result is not None:
        rcx, g = result._complex, cx.algebra
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
    if not is_cocycle(cx, c):
        raise InputError("class_vector requires a cocycle")
    if result is None:
        result = cohomology(cx, k, verify=False)
    if result.degree != k:
        raise InputError(f"result is for degree {result.degree}, not {k}")
    quotient = result._quotient
    index, n = quotient.source._index, quotient.n
    v = quotient.remainder({index[m]: x for m, x in c.terms if m in index})
    if min(v, default=n) < n:
        raise EngineError("cocycle does not decompose over B + representatives")
    return [_frac(-v.get(n + i, 0)) for i in range(result.betti)]


def cohomology_report(
    q: Complex | QuadraticLieSuperalgebra | LieSuperalgebra,
    k_max: int,
    *,
    name: str | None = None,
    include_representatives: bool = True,
    verify: bool = True,
    max_monomials: int = DEFAULT_MONOMIAL_LIMIT,
) -> dict:
    """Machine-readable cohomology report (schema 1)."""
    results = betti_table(
        q, k_max, verify=verify, max_monomials=max_monomials
    )
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
