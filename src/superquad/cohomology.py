"""Exact cohomology of the super-exterior complex.

The differential of ``cochains`` is assembled into exact sparse columns
between enumerated monomial bases, and kernels / images / quotients are
computed by exact sparse elimination over the rationals.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from types import MappingProxyType
from typing import Mapping

from .algebra import GradedBasis, LieSuperalgebra, diagonal_weights
from .cochains import (
    Cochain,
    DarbouxFrame,
    Monomial,
    _cochain,
    _dual_differentials,
    _poisson_left,
    associated_three_form,
    differential_direct,
    differential_via_poisson,
    monomials_of_degree,
)
from .errors import EngineError, InputError, ResourceLimitError
from .linalg import Echelon, Rat, _frac, _num, _sparse_rows, rank
from .quadratic import QuadraticLieSuperalgebra, darboux_frame

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
        for m in self.monomials:
            if m.degree != self.degree:
                raise InputError("monomial degree disagrees with basis degree")
        # built once: every coordinates() call and every delta assembly reads it
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(self.monomials)})

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

    source_degree: int
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


def _algebra(
    q: QuadraticLieSuperalgebra | LieSuperalgebra, c: Cochain | None = None
) -> LieSuperalgebra:
    """The algebra of q, checked to be the one the cochain c lives over."""
    g = q.algebra if isinstance(q, QuadraticLieSuperalgebra) else q
    if c is not None and c.basis != g.basis:
        raise InputError("cochain is over another basis than the algebra")
    return g


def differential_matrix(
    q: QuadraticLieSuperalgebra | LieSuperalgebra,
    k: int,
    *,
    verify: bool = True,
    frame: DarbouxFrame | None = None,
    three_form: Cochain | None = None,
) -> DifferentialMatrix:
    """Assemble delta_k column by column.

    Each column is differential_direct applied to a basis monomial.  When
    ``verify`` is true and a quadratic structure is available, every column
    is recomputed as -{I, monomial} and the two must agree exactly.

    What does not depend on the column is built once per call: the images
    delta(t*) of the degree-1 duals (``_dual_differentials``) and I's side
    of {I, .} (``_poisson_left``: I's signed contractions, combined by the
    even dual frame and by the odd Darboux frame).  Each column's
    -{I, monomial} is still a full evaluation of the bracket formula on
    the monomial's side, compared exactly with the Leibniz column.
    """
    quad = q if isinstance(q, QuadraticLieSuperalgebra) else None
    g = _algebra(q)
    basis = g.basis
    _check_cochain_dimensions(basis, k)
    src = cochain_basis(basis, k)
    tgt = cochain_basis(basis, k + 1)
    left = None
    if verify and quad is not None:
        if frame is None:
            frame = darboux_frame(quad)
        if three_form is None:
            three_form = associated_three_form(quad)
        left = _poisson_left(frame, three_form)
    duals = _dual_differentials(g)
    idx = tgt._index
    columns = []
    for m in src.monomials:
        c = _cochain(basis, {m: 1})
        image = differential_direct(g, c, duals=duals)
        if left is not None:
            alt = differential_via_poisson(quad, c, left=left)
            if image.terms != alt.terms:
                raise EngineError(
                    "differential_direct and differential_via_poisson "
                    f"disagree on {m} in degree {k}"
                )
        columns.append({idx[mm]: x for mm, x in image.terms})
    return DifferentialMatrix(
        source_degree=k, source=src, target=tgt, columns=tuple(columns)
    )


class _Quotient(Echelon):
    """The echelon of B^k (the columns of delta_{k-1}), then one row per
    representative of Z^k / B^k.  Representative i is fed with a 1 in the
    tag column n + i (n = dim C^k) that row operations carry along, so a
    cocycle reduced to zero in the cochain columns leaves minus its class
    vector in the tag columns, and nothing exactly when it is a
    coboundary."""

    def __init__(
        self,
        basis: GradedBasis,
        source: CochainBasis,
        d_prev: DifferentialMatrix | None,
    ) -> None:
        self.basis, self.source, self.n = basis, source, source.dimension
        super().__init__(_sparse_rows(d_prev.columns) if d_prev else (), limit=self.n)
        self.dim_boundary = len(self.rows)

    def add_cocycle(self, vec: dict[int, Rat]) -> bool:
        v = dict(vec)  # vec may become a representative: not reduced in place
        v[self.n + len(self.rows) - self.dim_boundary] = 1
        return self.add(v)

    def remainder_of(self, c: Cochain) -> dict[int, Rat]:
        return self.remainder(self.source.coordinates(c))


@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    betti: int
    representatives: tuple[Cochain, ...]
    _quotient: _Quotient | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.betti != self.dim_cocycles - self.dim_coboundaries:
            raise EngineError("betti must equal dim cocycles - dim coboundaries")


def _degree(c: Cochain, what: str) -> int:
    degrees = {m.degree for m, _ in c.terms}
    if len(degrees) != 1:
        raise InputError(f"{what} requires a Z-homogeneous cochain")
    return degrees.pop()


def _check_cochain_dimensions(
    basis: GradedBasis, k_max: int, limit: int = DEFAULT_MONOMIAL_LIMIT
) -> None:
    """Refuse, before any work, a negative k_max and a dim C^k over
    ``limit`` for k <= k_max + 1."""
    if k_max < 0:
        raise InputError("k_max must be non-negative")
    for k in range(k_max + 2):
        if (dim := cochain_dimension(basis, k)) > limit:
            raise ResourceLimitError(
                f"dim C^{k} = {dim} exceeds the monomial limit {limit}"
            )


def _cross_check_data(q: QuadraticLieSuperalgebra | LieSuperalgebra, verify: bool) -> dict:
    """The Darboux frame and 3-form the -{I,.} cross-check reads, built once
    for every differential a call assembles."""
    if verify and isinstance(q, QuadraticLieSuperalgebra):
        return {"frame": darboux_frame(q), "three_form": associated_three_form(q)}
    return {}


def cohomology(
    q: QuadraticLieSuperalgebra | LieSuperalgebra,
    k: int,
    *,
    verify: bool = True,
    d_k: DifferentialMatrix | None = None,
    d_prev: DifferentialMatrix | None = None,
) -> CohomologyResult:
    """H^k = Ker delta_k / Im delta_{k-1} with echelonized representatives."""
    if k < 0:
        raise InputError("cohomology degree must be non-negative")
    basis = _algebra(q).basis
    if d_k is None:
        _check_cochain_dimensions(basis, k)
    if d_k is None or (k > 0 and d_prev is None):
        shared = _cross_check_data(q, verify)
        if d_k is None:
            d_k = differential_matrix(q, k, verify=verify, **shared)
        if k > 0 and d_prev is None:
            d_prev = differential_matrix(q, k - 1, verify=verify, **shared)
    src, last = d_k.source, d_k.source.dimension - 1
    # With the columns reversed, the free-column kernel basis has its
    # leading 1 at its own free column: read back, it is the reduced
    # echelon basis of Z^k, last row first.
    rows: dict[int, dict[int, Rat]] = {}
    for j, col in enumerate(d_k.columns):
        for i, x in col.items():
            rows.setdefault(i, {})[last - j] = _num(x)
    kernel = Echelon(rows.values()).kernel(src.dimension)
    cocycles = [{last - j: x for j, x in v.items()} for v in reversed(kernel)]
    quotient = _Quotient(basis, src, d_prev if k > 0 else None)
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
    return CohomologyResult(
        degree=k,
        dim_cochains=src.dimension,
        dim_cocycles=n_z,
        dim_coboundaries=n_b,
        betti=n_z - n_b,
        representatives=tuple(src.from_coordinates(basis, v) for v in reps),
        _quotient=quotient,
    )


def betti_table(
    q: QuadraticLieSuperalgebra | LieSuperalgebra,
    k_max: int,
    *,
    verify: bool = True,
    max_monomials: int = DEFAULT_MONOMIAL_LIMIT,
) -> list[CohomologyResult]:
    """Cohomology in degrees 0..k_max, reusing each differential once."""
    _check_cochain_dimensions(_algebra(q).basis, k_max, max_monomials)
    shared = _cross_check_data(q, verify)
    mats = [differential_matrix(q, k, verify=verify, **shared) for k in range(k_max + 1)]
    return [
        cohomology(q, k, verify=verify, d_k=mats[k], d_prev=mats[k - 1] if k else None)
        for k in range(k_max + 1)
    ]


def is_cocycle(q: QuadraticLieSuperalgebra | LieSuperalgebra, c: Cochain) -> bool:
    return differential_direct(_algebra(q, c), c).is_zero


def _weight_key(weights: list[tuple[Rat | int, ...]], m: Monomial) -> tuple:
    """The block of m: the sums of its letters' weights (``diagonal_weights``),
    the last one, the number of odd letters, taken mod 2 (the sym-parity)."""
    letters = m.even + m.odd
    if not letters:
        return (0,) * len(weights[0])
    *lam, odd = map(sum, zip(*[weights[t] for t in letters]))
    return (*lam, odd % 2)


def is_coboundary(q: QuadraticLieSuperalgebra | LieSuperalgebra, c: Cochain) -> bool:
    """True iff c = delta(b) for some cochain b (c must be Z-homogeneous).

    delta keeps the weight of every diagonal derivation and the
    sym-parity, so it maps each block of C^{k-1} (``_weight_key``) into
    the block of C^k with the same key, and c is a coboundary exactly
    when it is delta of a cochain in the blocks of c's own terms
    (Hochschild-Serre).  Only those columns of delta_{k-1} are built.
    Certificate: every term of every built column must lie in its
    source's block, or the torus or delta is wrong (EngineError).
    """
    g = _algebra(q, c)
    if c.is_zero:
        return True
    k = _degree(c, "coboundary test")
    if k == 0:
        return False
    _check_cochain_dimensions(g.basis, k - 1)
    weights = diagonal_weights(g)
    keys = {_weight_key(weights, m) for m, _ in c.terms}
    duals = _dual_differentials(g)
    index: dict[Monomial, int] = {}  # target monomials, in order of appearance
    columns = []
    for m in monomials_of_degree(g.basis, k - 1):
        key = _weight_key(weights, m)
        if key not in keys:
            continue
        column = {}
        for mm, x in differential_direct(g, _cochain(g.basis, {m: 1}), duals=duals).terms:
            if _weight_key(weights, mm) != key:
                raise EngineError(
                    f"delta of {m} leaves its weight block {key}: "
                    "the torus or delta is wrong"
                )
            column[index.setdefault(mm, len(index))] = _num(x)
        columns.append(column)
    target = {}
    for m, x in c.terms:
        if m not in index:
            return False
        target[index[m]] = _num(x)
    return not Echelon(columns).remainder(target)


def class_vector(
    q: QuadraticLieSuperalgebra | LieSuperalgebra,
    c: Cochain,
    *,
    result: CohomologyResult | None = None,
) -> list[Rat]:
    """Coordinates of the class [c] in the representative basis of H^k.

    Raises InputError when c is not a cocycle of pure degree k, or when
    ``result`` is not this algebra's cohomology() in degree k.
    """
    g = _algebra(q, c)
    if c.is_zero:
        if result is None:
            raise InputError("class_vector of 0 needs an explicit result")
        return [Fraction(0)] * result.betti
    k = _degree(c, "class_vector")
    if not is_cocycle(q, c):
        raise InputError("class_vector requires a cocycle")
    if result is None:
        result = cohomology(q, k, verify=False)
    if result.degree != k:
        raise InputError(f"result is for degree {result.degree}, not {k}")
    quotient = result._quotient
    if quotient is None or quotient.basis != g.basis:
        raise InputError("result is not a cohomology() of this algebra's basis")
    v, n = quotient.remainder_of(c), quotient.n
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
