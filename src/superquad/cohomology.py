"""Exact cohomology of the super-exterior complex.

The differential of ``cochains`` is assembled into exact rational matrices
between enumerated monomial bases, and kernels / images / quotients are
computed by exact elimination over the rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

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
from .linalg import Rat, echelon_basis, nullspace, rank, solve
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
        if not self.entries or not self.entries[0]:
            return 0
        return rank([list(row) for row in self.entries])


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
    g = q.algebra if isinstance(q, QuadraticLieSuperalgebra) else q
    basis = g.basis
    src = cochain_basis(basis, k)
    tgt = cochain_basis(basis, k + 1)
    if verify and quad is not None:
        if frame is None:
            frame = darboux_frame(quad)
        if three_form is None:
            three_form = associated_three_form(quad)
    cols: list[list[Rat]] = []
    for m in src.monomials:
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
        cols.append(tgt.coordinates(image))
    entries = tuple(
        tuple(cols[j][i] for j in range(len(cols))) for i in range(tgt.dimension)
    )
    return DifferentialMatrix(
        source_degree=k, source=src, target=tgt, entries=entries
    )


@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    betti: int
    representatives: tuple[Cochain, ...]

    def __post_init__(self) -> None:
        if self.betti != self.dim_cocycles - self.dim_coboundaries:
            raise EngineError("betti must equal dim cocycles - dim coboundaries")


def _cocycle_vectors(d_k: DifferentialMatrix) -> list[list[Rat]]:
    rows, cols = d_k.shape
    if cols == 0:
        return []
    if rows == 0:
        # zero map out of a nonzero space: everything is a cocycle
        return [
            [Fraction(1) if j == i else Fraction(0) for j in range(cols)]
            for i in range(cols)
        ]
    return nullspace([list(r) for r in d_k.entries])


def _coboundary_vectors(d_prev: DifferentialMatrix | None) -> list[list[Rat]]:
    if d_prev is None:
        return []
    rows, cols = d_prev.shape
    if rows == 0 or cols == 0:
        return []
    columns = [
        [d_prev.entries[i][j] for i in range(rows)] for j in range(cols)
    ]
    return echelon_basis(columns)


def _quotient_representatives(
    cocycles: list[list[Rat]], coboundaries: list[list[Rat]]
) -> list[list[Rat]]:
    """Reduced-echelon completion of the coboundary space inside the
    cocycle space: scan the echelonized cocycles and keep those that grow
    the rank of the running span."""
    reps: list[list[Rat]] = []
    span: list[list[Rat]] = [list(v) for v in coboundaries]
    current = rank(span) if span else 0
    for v in echelon_basis(cocycles):
        candidate = span + [list(v)]
        r = rank(candidate)
        if r > current:
            reps.append(v)
            span = candidate
            current = r
    return reps


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
    g = q.algebra if isinstance(q, QuadraticLieSuperalgebra) else q
    basis = g.basis
    if d_k is None:
        d_k = differential_matrix(q, k, verify=verify)
    if k > 0 and d_prev is None:
        d_prev = differential_matrix(q, k - 1, verify=verify)
    src = d_k.source
    cocycles = _cocycle_vectors(d_k)
    coboundaries = _coboundary_vectors(d_prev if k > 0 else None)
    reps_vec = _quotient_representatives(cocycles, coboundaries)
    reps = tuple(src.from_coordinates(basis, v) for v in reps_vec)
    n_z = len(cocycles)
    n_b = rank([list(v) for v in coboundaries]) if coboundaries else 0
    # rank-nullity sanity: dim C^k = rank delta_k + dim Ker delta_k
    if src.dimension != d_k.rank() + n_z:
        raise EngineError("rank-nullity violated in cohomology assembly")
    return CohomologyResult(
        degree=k,
        dim_cochains=src.dimension,
        dim_cocycles=n_z,
        dim_coboundaries=n_b,
        betti=n_z - n_b,
        representatives=reps,
    )


def betti_table(
    q: QuadraticLieSuperalgebra | LieSuperalgebra,
    k_max: int,
    *,
    verify: bool = True,
    max_monomials: int = DEFAULT_MONOMIAL_LIMIT,
) -> list[CohomologyResult]:
    """Cohomology in degrees 0..k_max, reusing each differential once."""
    if k_max < 0:
        raise InputError("k_max must be non-negative")
    g = q.algebra if isinstance(q, QuadraticLieSuperalgebra) else q
    basis = g.basis
    for k in range(0, k_max + 2):
        dim = cochain_dimension(basis, k)
        if dim > max_monomials:
            raise ResourceLimitError(
                f"dim C^{k} = {dim} exceeds the monomial limit "
                f"{max_monomials}; raise max_monomials to proceed"
            )
    mats = [differential_matrix(q, k, verify=verify) for k in range(k_max + 1)]
    out: list[CohomologyResult] = []
    for k in range(k_max + 1):
        out.append(
            cohomology(
                q,
                k,
                verify=verify,
                d_k=mats[k],
                d_prev=mats[k - 1] if k > 0 else None,
            )
        )
    return out


def is_cocycle(q: QuadraticLieSuperalgebra | LieSuperalgebra, c: Cochain) -> bool:
    g = q.algebra if isinstance(q, QuadraticLieSuperalgebra) else q
    return differential_direct(g, c).is_zero


def is_coboundary(
    q: QuadraticLieSuperalgebra | LieSuperalgebra, c: Cochain
) -> bool:
    """True iff c = delta(b) for some cochain b (c must be Z-homogeneous)."""
    if c.is_zero:
        return True
    degrees = {m.degree for m, _ in c.terms}
    if len(degrees) != 1:
        raise InputError("coboundary test requires a Z-homogeneous cochain")
    k = degrees.pop()
    if k == 0:
        return False
    d_prev = differential_matrix(q, k - 1, verify=False)
    vec = d_prev.target.coordinates(c)
    coboundaries = _coboundary_vectors(d_prev)
    base_rank = rank([list(v) for v in coboundaries]) if coboundaries else 0
    return rank([list(v) for v in coboundaries] + [vec]) == base_rank


def class_vector(
    q: QuadraticLieSuperalgebra | LieSuperalgebra,
    c: Cochain,
    *,
    result: CohomologyResult | None = None,
) -> list[Rat]:
    """Coordinates of the class [c] in the representative basis of H^k.

    Raises InputError when c is not a cocycle of pure degree k.
    """
    if c.is_zero:
        if result is None:
            raise InputError("class_vector of 0 needs an explicit result")
        return [Fraction(0)] * result.betti
    degrees = {m.degree for m, _ in c.terms}
    if len(degrees) != 1:
        raise InputError("class_vector requires a Z-homogeneous cochain")
    k = degrees.pop()
    if not is_cocycle(q, c):
        raise InputError("class_vector requires a cocycle")
    if result is None:
        result = cohomology(q, k, verify=False)
    g = q.algebra if isinstance(q, QuadraticLieSuperalgebra) else q
    src = cochain_basis(g.basis, k)
    d_prev = (
        differential_matrix(q, k - 1, verify=False) if k > 0 else None
    )
    coboundaries = _coboundary_vectors(d_prev)
    reps = [src.coordinates(r) for r in result.representatives]
    # solve c = (coboundary combination) + sum_i t_i rep_i exactly
    ncols = src.dimension
    cols = [list(v) for v in coboundaries] + [list(r) for r in reps]
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(ncols)]
    sol = solve(mat, src.coordinates(c))
    if sol is None:
        raise EngineError("cocycle does not decompose over B + representatives")
    return sol[len(coboundaries):]


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
