"""Exact cohomology of the super-exterior complex.

The differential of ``cochains`` is assembled into exact rational matrices
between enumerated monomial bases, and kernels / images / quotients are
computed by exact elimination over the rationals.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Sequence

from .algebra import GradedBasis, LieSuperalgebra
from .cochains import (
    Cochain,
    DarbouxFrame,
    Monomial,
    associated_three_form,
    differential_direct,
    differential_via_poisson,
    monomials_of_degree,
)
from .errors import EngineError, InputError, ResourceLimitError
from .linalg import Echelon, Rat, nullspace, rank, transpose
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

    @property
    def dimension(self) -> int:
        return len(self.monomials)

    def index_map(self) -> dict[Monomial, int]:
        return {m: i for i, m in enumerate(self.monomials)}

    def coordinates(self, c: Cochain) -> list[Rat]:
        idx = self.index_map()
        vec: list[Rat] = [Fraction(0)] * len(self.monomials)
        for m, coeff in c.terms:
            if m not in idx:
                raise InputError(
                    f"cochain term {m} does not live in C^{self.degree}"
                )
            vec[idx[m]] = coeff
        return vec

    def from_coordinates(self, basis: GradedBasis, vec: list[Rat]) -> Cochain:
        if len(vec) != len(self.monomials):
            raise InputError("coordinate vector has the wrong length")
        return Cochain.from_terms(
            basis, {m: v for m, v in zip(self.monomials, vec) if v != 0}
        )


def cochain_basis(g: LieSuperalgebra | GradedBasis, k: int) -> CochainBasis:
    basis = g if isinstance(g, GradedBasis) else g.basis
    return CochainBasis(degree=k, monomials=tuple(monomials_of_degree(basis, k)))


@dataclass(frozen=True)
class DifferentialMatrix:
    """delta_k as a matrix: rows indexed by C^{k+1}, columns by C^k."""

    source_degree: int
    source: CochainBasis
    target: CochainBasis
    entries: tuple[tuple[Rat, ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.target.dimension, self.source.dimension)

    def rank(self) -> int:
        return rank(self.entries)


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
    """
    quad = q if isinstance(q, QuadraticLieSuperalgebra) else None
    g = _algebra(q)
    basis = g.basis
    _check_cochain_dimensions(basis, k)
    src = cochain_basis(basis, k)
    tgt = cochain_basis(basis, k + 1)
    if verify and quad is not None:
        if frame is None:
            frame = darboux_frame(quad)
        if three_form is None:
            three_form = associated_three_form(quad)
    idx = tgt.index_map()
    entries = [[Fraction(0)] * src.dimension for _ in range(tgt.dimension)]
    for col, m in enumerate(src.monomials):
        c = Cochain.from_terms(basis, {m: Fraction(1)})
        image = differential_direct(g, c)
        if verify and quad is not None:
            alt = differential_via_poisson(
                quad, c, three_form=three_form, frame=frame
            )
            if image.terms != alt.terms:
                raise EngineError(
                    "differential_direct and differential_via_poisson "
                    f"disagree on {m} in degree {k}"
                )
        for mm, x in image.terms:
            entries[idx[mm]][col] = x
    return DifferentialMatrix(
        source_degree=k, source=src, target=tgt, entries=tuple(map(tuple, entries))
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
        super().__init__(zip(*d_prev.entries) if d_prev else (), limit=self.n)
        self.dim_boundary = len(self.rows)

    def add_cocycle(self, vec: Sequence[Rat]) -> bool:
        v = {j: x for j, x in enumerate(vec) if x}
        v[self.n + len(self.rows) - self.dim_boundary] = Fraction(1)
        return self.add(v)

    def remainder_of(self, c: Cochain) -> dict[int, Rat]:
        idx = self.source.index_map()
        return self.remainder({idx[m]: x for m, x in c.terms})


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
        d_k = differential_matrix(q, k, verify=verify)
    if k > 0 and d_prev is None:
        d_prev = differential_matrix(q, k - 1, verify=verify)
    src = d_k.source
    # With the columns reversed, the free-column kernel basis has its
    # leading 1 at its own free column: read back, it is the reduced
    # echelon basis of Z^k, last row first.
    kernel = nullspace([row[::-1] for row in d_k.entries], src.dimension)
    cocycles = [v[::-1] for v in reversed(kernel)]
    quotient = _Quotient(basis, src, d_prev if k > 0 else None)
    reps = [v for v in cocycles if quotient.add_cocycle(v)]
    n_z, n_b = len(cocycles), quotient.dim_boundary
    # rank-nullity, the rank taken over delta_k's columns: a second route,
    # independent of the row elimination behind the kernel
    if src.dimension != rank(transpose(d_k.entries)) + n_z:
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
    quad = verify and isinstance(q, QuadraticLieSuperalgebra)
    shared = {"frame": darboux_frame(q), "three_form": associated_three_form(q)} if quad else {}
    mats = [differential_matrix(q, k, verify=verify, **shared) for k in range(k_max + 1)]
    return [
        cohomology(q, k, verify=verify, d_k=mats[k], d_prev=mats[k - 1] if k else None)
        for k in range(k_max + 1)
    ]


def is_cocycle(q: QuadraticLieSuperalgebra | LieSuperalgebra, c: Cochain) -> bool:
    return differential_direct(_algebra(q, c), c).is_zero


def is_coboundary(q: QuadraticLieSuperalgebra | LieSuperalgebra, c: Cochain) -> bool:
    """True iff c = delta(b) for some cochain b (c must be Z-homogeneous)."""
    g = _algebra(q, c)
    if c.is_zero:
        return True
    k = _degree(c, "coboundary test")
    if k == 0:
        return False
    _check_cochain_dimensions(g.basis, k - 1)
    d_prev = differential_matrix(q, k - 1, verify=False)
    return not _Quotient(g.basis, d_prev.target, d_prev).remainder_of(c)


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
    return [-v.get(n + i, Fraction(0)) for i in range(result.betti)]


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
