"""Superderivations and double extensions of quadratic Lie superalgebras.

A double extension glues a Lie superalgebra h, a quadratic Lie
superalgebra (g, B), and a morphism psi from h into the skew-supersymmetric
superderivations of g into a quadratic structure on h (+) g (+) h*.
"""
from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from ._frozen import Frozen
from .algebra import (
    GradedBasis,
    LieSuperalgebra,
    ValidationReport,
    Violation,
    validate_lie_superalgebra,
)
from .errors import EngineError, InputError
from .linalg import Rat, _combine, _frac, _num, rat, reduced_kernel
from .quadratic import (
    BilinearForm,
    QuadraticLieSuperalgebra,
    _require_quadratic,
    reorder_quadratic,
    validate_form,
    validate_quadratic,
)

__all__ = [
    "Superderivation",
    "is_superderivation",
    "is_skew_superderivation",
    "skew_superderivation_space",
    "ad_superderivation",
    "ExtensionDatum",
    "validate_extension_datum",
    "double_extension",
    "one_dim_double_extension",
    "central_reduction",
]


def _check_z2_degree(degree: object) -> None:
    """Raise InputError unless degree is the int 0 or 1 (not a bool)."""
    if type(degree) is not int or degree not in (0, 1):
        raise InputError("superderivation degree must be 0 or 1")


class Superderivation(Frozen):
    """A homogeneous endomorphism candidate of degree alpha (0 or 1), stored
    as its nonzero columns: ``columns[s]`` is D e_s as {r: D[r][s]}, zeros
    left out, in the kernels' form (see ``linalg._num``).  Read the
    columns, never change them in place.

    ``Superderivation(matrix, degree)`` takes the n x n matrix acting on
    coordinate columns, (D v)_i = sum_j m[i][j] v_j, each entry an exact
    rational (``rat``); ``matrix`` gives it back as Fractions.
    """

    _fields = ("columns", "degree")
    _shown = ("matrix", "degree")

    def __init__(self, matrix: Sequence[Sequence[object]], degree: int):
        _check_z2_degree(degree)
        if not (isinstance(matrix, (list, tuple))
                and all(isinstance(row, (list, tuple)) and len(row) == len(matrix) for row in matrix)):
            raise InputError("superderivation matrix must be square: a list or tuple of n rows of n values")
        columns: list[dict[int, Rat | int]] = [{} for _ in matrix]
        for r, row in enumerate(matrix):
            for s, x in enumerate(row):
                if v := rat(x):
                    columns[s][r] = _num(v)
        self.__dict__.update(columns=tuple(columns), degree=degree)

    @classmethod
    def _of_columns(cls, columns: Sequence[dict[int, Rat | int]], degree: int) -> "Superderivation":
        """The derivation with these zero-free columns in the kernels' form; the dicts are neither checked nor copied."""
        d = cls.__new__(cls)
        d.__dict__.update(columns=tuple(columns), degree=degree)
        return d

    def __hash__(self) -> int:
        # equal columns are equal as frozensets of their nonzeros
        return hash((tuple(frozenset(col.items()) for col in self.columns), self.degree))

    @cached_property
    def matrix(self) -> tuple[tuple[Rat, ...], ...]:
        """The n x n matrix m[r][s] = D[r][s], every entry a Fraction, built
        once per object."""
        zero = Fraction(0)
        rows = [[zero] * self.dim for _ in self.columns]
        for s, col in enumerate(self.columns):
            for r, x in col.items():
                rows[r][s] = _frac(x)
        return tuple(map(tuple, rows))

    @property
    def dim(self) -> int:
        return len(self.columns)


def _grading_violations(basis: GradedBasis, d: Superderivation) -> list[Violation]:
    """One violation per nonzero D[i][j] with parity(i) != parity(j) +
    degree, by column j, then row i."""
    out: list[Violation] = []
    p, degree = basis.parities, d.degree
    for j, col in enumerate(d.columns):
        for i in sorted(i for i in col if p[i] != (p[j] + degree) % 2):
            out.append(
                Violation(
                    rule="superderivation-grading",
                    witness=(basis.labels[i], basis.labels[j]),
                    message=f"entry ({i},{j}) maps parity {p[j]} into parity {p[i]}, but the degree is {degree}",
                )
            )
    return out


def _defects(q_or_g, degree: int, slots: list[tuple[int, int]]) -> dict[int, dict[int, Rat | int]]:
    """The defect system of a D of this degree whose entries at ``slots``
    (r, s) are the unknowns: key -> {slot index: coefficient}, zero-free, in
    the kernels' form (see ``linalg._num``), summed in one pass over the
    bracket table and the Gram rows.

    Both rules are linear in D's entries, so D passes iff
    sum_k D[slots[k]] row[k] is zero in every row.  A key packs (rule, i,
    j, t) as ((rule * n + i) * n + j) * n + t, so keys sort as the tuples do:

    * Leibniz, rule 0, for i <= j: the t-th coordinate of
      D[e_i,e_j] - [De_i,e_j] - (-1)^{alpha x_i}[e_i,De_j];
    * skew, rule 1, t = 0, only when q_or_g carries a form:
      B(De_i,e_j) + (-1)^{alpha x_i} B(e_i,De_j).
    """
    quadratic = isinstance(q_or_g, QuadraticLieSuperalgebra)
    g = q_or_g.algebra if quadratic else q_or_g
    n, p = g.basis.dim, g.basis.parities
    sign = [-1 if degree and x else 1 for x in p]
    by_row: list[list[tuple[int, int]]] = [[] for _ in p]  # r -> (s, slot index): D e_s has e_r
    by_col: list[list[tuple[int, int]]] = [[] for _ in p]  # s -> (r, slot index)
    for k, (r, s) in enumerate(slots):
        by_row[r].append((s, k))
        by_col[s].append((r, k))
    m, acc = len(slots), {}  # key * m + slot index -> coefficient
    get = acc.get
    for (a, b), terms in g.bracket_table.items():
        f = -sign[b] if p[a] and p[b] else sign[b]  # [e_b, e_a] = -(-1)^{x_a x_b}[e_a, e_b]
        for t, c in terms.items():
            for r, k in by_col[t] if a <= b else ():  # D[e_a, e_b] at e_t = e_r
                x = ((a * n + b) * n + r) * m + k
                acc[x] = get(x, 0) + c
            for s, k in by_row[a]:  # D e_s = e_a
                if s <= b:  # -[D e_s, e_b]
                    x = ((s * n + b) * n + t) * m + k
                    acc[x] = get(x, 0) - c
                if b <= s:  # -(-1)^{alpha x_b}[e_b, D e_s]
                    x = ((b * n + s) * n + t) * m + k
                    acc[x] = get(x, 0) + f * c
    if quadratic:
        skew = n ** 3
        for i, gram_row in enumerate(q_or_g.form.rows):
            for j, v in gram_row.items():
                for s, k in by_row[i]:  # B(D e_s, e_j), D e_s = e_i
                    x = (skew + (s * n + j) * n) * m + k
                    acc[x] = get(x, 0) + v
                for s, k in by_row[j]:  # (-1)^{alpha x_i} B(e_i, D e_s), D e_s = e_j
                    x = (skew + (i * n + s) * n) * m + k
                    acc[x] = get(x, 0) + sign[i] * v
    rows: defaultdict[int, dict[int, Rat | int]] = defaultdict(dict)
    for x, v in acc.items():
        if v:
            key, k = divmod(x, m)
            rows[key][k] = _num(v)
    return rows


def _derivation_report(q_or_g, matrix, degree: int) -> ValidationReport:
    """Grading, then one violation per (rule, i, j) at which the defect of
    D (see ``_defects``) is nonzero, in sorted order."""
    _check_z2_degree(degree)
    d = matrix if isinstance(matrix, Superderivation) else Superderivation(matrix=matrix, degree=degree)
    if d.degree != degree:
        raise InputError("degree argument disagrees with the Superderivation")
    basis = q_or_g.basis
    if d.dim != basis.dim:
        raise InputError(f"derivation matrix is {d.dim}x{d.dim}, but the algebra has dimension {basis.dim}")
    violations = _grading_violations(basis, d)
    n, entries = basis.dim, [(r, s, x) for s, column in enumerate(d.columns) for r, x in column.items()]
    rows = _defects(q_or_g, degree, [(r, s) for r, s, _ in entries])
    failing = {key // n for key, row in rows.items() if sum(entries[k][2] * v for k, v in row.items())}
    for rule_i, j in sorted(divmod(key, n) for key in failing):
        rule, i = divmod(rule_i, n)
        a, b = basis.labels[i], basis.labels[j]
        violations.append(
            Violation(
                rule="skew-supersymmetry-of-derivation" if rule else "superderivation-leibniz",
                witness=(a, b),
                message=(
                    f"B(D{a},{b}) != -(-1)^(alpha.x) B({a},D{b})"
                    if rule
                    else f"D[{a},{b}] != [D{a},{b}] + (-1)^(alpha.x)[{a},D{b}]"
                ),
            )
        )
    return ValidationReport(violations=tuple(violations))


def is_superderivation(
    g: LieSuperalgebra, matrix, degree: int
) -> ValidationReport:
    """Check D[X,Y] = [DX,Y] + (-1)^{alpha x}[X,DY] on all basis pairs."""
    return _derivation_report(g, matrix, degree)


def is_skew_superderivation(
    q: QuadraticLieSuperalgebra, matrix, degree: int
) -> ValidationReport:
    """Superderivation check plus B(DX,Y) = -(-1)^{alpha x} B(X,DY)."""
    _require_quadratic(q, "a skew superderivation")
    return _derivation_report(q, matrix, degree)


def skew_superderivation_space(
    q: QuadraticLieSuperalgebra, degree: int
) -> list[Superderivation]:
    """Reduced echelon basis of the skew-supersymmetric superderivations of
    a degree: the kernel of the defect (see ``_defects``) on the entries
    (i, j) with parity(i) = parity(j) + degree, in row-major order.

    A one-term row pins its entry to 0, so those entries leave the system
    and only the distinct rows on the other entries are eliminated: the
    kernel there, with the pinned entries 0, is the same space, and its
    reduced echelon basis is unique."""
    _require_quadratic(q, "a skew superderivation")
    _check_z2_degree(degree)
    n = q.basis.dim
    p = q.basis.parities
    slots = [(i, j) for i in range(n) for j in range(n) if p[i] == (p[j] + degree) % 2]
    rows = _defects(q, degree, slots)
    pinned = {k for row in rows.values() if len(row) == 1 for k in row}
    free = [k for k in range(len(slots)) if k not in pinned]
    column = {k: c for c, k in enumerate(free)}
    system: dict[tuple, dict[int, Rat]] = {}  # each distinct row once, keyed by its items
    for row in rows.values():
        if len(row) > 1 and (r := {column[k]: v for k, v in row.items() if k in column}):
            system.setdefault(tuple(r.items()), r)
    out: list[Superderivation] = []
    for v in reduced_kernel(list(system.values()), len(free)):
        columns: list[dict[int, Rat | int]] = [{} for _ in range(n)]
        for c, x in v.items():
            i, j = slots[free[c]]
            columns[j][i] = x
        out.append(Superderivation._of_columns(columns, degree))
    return out


def ad_superderivation(q: QuadraticLieSuperalgebra, label: str) -> Superderivation:
    """ad(X) for a homogeneous basis vector X, packaged with its degree;
    column j is [X, e_j], read off X's row of the bracket table."""
    idx = q.basis.index(label)
    columns: list[dict[int, Rat | int]] = [{} for _ in range(q.dim)]
    for j, terms in q.algebra._by_first.get(idx, ()):
        columns[j] = dict(terms)
    return Superderivation._of_columns(columns, q.basis.parities[idx])


class ExtensionDatum(Frozen):
    """Input package for a double extension: h, (g, B), psi, gamma."""

    _fields = ("base", "h", "psi", "gamma")

    def __init__(self, base: QuadraticLieSuperalgebra, h: LieSuperalgebra, psi: tuple[Superderivation, ...],
                 gamma: BilinearForm | None = None):
        _require_quadratic(base, "the base of an extension datum")
        if not isinstance(h, LieSuperalgebra):
            raise InputError(f"h must be a LieSuperalgebra, not {type(h).__name__}")
        if not (isinstance(psi, (list, tuple)) and all(isinstance(d, Superderivation) for d in psi)):
            raise InputError("psi must be a tuple of Superderivations")
        if len(psi) != h.basis.dim:
            raise InputError("psi must assign one derivation per h basis vector")
        if any(d.dim != base.dim for d in psi):
            raise InputError("psi matrices must match the base dimension")
        if not (gamma is None or isinstance(gamma, BilinearForm) and gamma.basis == h.basis):
            raise InputError("gamma must be a bilinear form on the h basis, or None")
        self.__dict__.update(base=base, h=h, psi=tuple(psi), gamma=gamma)


def validate_extension_datum(d: ExtensionDatum) -> ValidationReport:
    violations: list[Violation] = []
    violations.extend(validate_lie_superalgebra(d.h).violations)
    hbasis = d.h.basis
    for k, dk in enumerate(d.psi):
        if dk.degree != hbasis.parities[k]:
            violations.append(
                Violation(
                    rule="psi-degree",
                    witness=(hbasis.labels[k],),
                    message=(
                        f"psi({hbasis.labels[k]}) has degree {dk.degree}, "
                        f"expected the parity {hbasis.parities[k]}"
                    ),
                )
            )
            continue
        rep = is_skew_superderivation(d.base, dk, dk.degree)
        for v in rep.violations:
            violations.append(
                Violation(
                    rule="psi-" + v.rule,
                    witness=(hbasis.labels[k],) + tuple(v.witness),
                    message=f"psi({hbasis.labels[k]}): {v.message}",
                )
            )
    # morphism: psi([Z,W]_h) = psi(Z) psi(W) - (-1)^{zw} psi(W) psi(Z)
    h_table = d.h.bracket_table
    cols = [dk.columns for dk in d.psi]  # column s: {r: psi[r][s]}
    for i in range(hbasis.dim):
        for j in range(i, hbasis.dim):
            sign = -1 if hbasis.parities[i] and hbasis.parities[j] else 1
            # entries (r, s) of psi_i psi_j - sign psi_j psi_i - psi([Z, W]_h)
            acc: dict[tuple[int, int], Rat] = {}
            for scale, a, b in ((1, i, j), (-sign, j, i)):
                for s, col in _combine(dict(enumerate(cols[b])), cols[a]).items():
                    for r, x in col.items():
                        acc[r, s] = acc.get((r, s), 0) + scale * x
            for t, c in h_table.get((i, j), {}).items():
                for s, col in enumerate(cols[t]):
                    for r, x in col.items():
                        acc[r, s] = acc.get((r, s), 0) - c * x
            if any(acc.values()):
                violations.append(
                    Violation(
                        rule="psi-morphism",
                        witness=(hbasis.labels[i], hbasis.labels[j]),
                        message=(
                            f"psi([{hbasis.labels[i]},{hbasis.labels[j]}]) != "
                            "[psi(Z), psi(W)] as a super-commutator"
                        ),
                    )
                )
    if d.gamma is not None:
        for v in validate_form(d.h, d.gamma):
            if v.rule == "nondegenerate":
                continue  # gamma may be degenerate (and is usually zero)
            violations.append(
                Violation(
                    rule="gamma-" + v.rule,
                    witness=v.witness,
                    message=f"gamma: {v.message}",
                )
            )
    return ValidationReport(violations=tuple(violations))


def _extension_labels(d: ExtensionDatum) -> tuple[list[str], list[str], list[str]]:
    h_labels = list(d.h.basis.labels)
    g_labels = list(d.base.basis.labels)
    dual_labels = [lab + "*" for lab in h_labels]
    all_labels = h_labels + g_labels + dual_labels
    if len(set(all_labels)) != len(all_labels):
        raise InputError(
            "label collision between h, the base, and the dual copy; "
            "rename the h basis labels"
        )
    return h_labels, g_labels, dual_labels


def double_extension(d: ExtensionDatum) -> QuadraticLieSuperalgebra:
    """The quadratic Lie superalgebra on h (+) g (+) h*.

    Bracket (x, y the parities of the homogeneous arguments):

      [Z+X+f, W+Y+g] = [Z,W]_h + [X,Y]_g + psi(Z)(Y) - (-1)^{xy} psi(W)(X)
                       + pi(Z)(g) - (-1)^{xy} pi(W)(f) + phi(X,Y),
      phi(X,Y)(Z) = (-1)^{(x+y)z} B(psi(Z)(X), Y),
      (pi(Z)g)(W) = -(-1)^{zg} g([Z,W]_h)   (coadjoint action),

    and form  B~(Z+X+f, W+Y+g) = B(X,Y) + gamma(Z,W) + f(W) + (-1)^{xy} g(Z).
    Each bracket and form entry is written once, from the nonzeros of the
    data; the other order of a pair follows by skew supersymmetry.
    The datum is validated first, except for the base; the output is
    validated afterwards (see ``_require_extension``).
    """
    return _require_extension(_assemble(d), d.base)


def _assemble(d: ExtensionDatum) -> QuadraticLieSuperalgebra:
    """``double_extension`` after the datum check, before the output's."""
    validate_extension_datum(d)._raise_first("extension datum invalid", InputError)
    base, h = d.base, d.h
    nh, ng = h.basis.dim, base.basis.dim
    h_labels, g_labels, dual_labels = _extension_labels(d)
    hp, gp = h.basis.parities, base.basis.parities
    parities = hp + gp + hp
    labels = h_labels + g_labels + dual_labels
    # evens then odds, each in the order h, g, h*
    order = sorted(range(len(labels)), key=lambda t: (parities[t], t))
    new_basis = GradedBasis(
        labels=tuple(labels[t] for t in order),
        parities=tuple(parities[t] for t in order),
    )
    position = {t: k for k, t in enumerate(order)}
    hi = [position[k] for k in range(nh)]
    gi = [position[nh + s] for s in range(ng)]
    fi = [position[nh + ng + k] for k in range(nh)]
    rows: dict[tuple[int, int], dict[int, Rat]] = {}

    def add(a: int, b: int, t: int, c: Rat) -> None:
        entry = rows.setdefault((a, b), {})
        entry[t] = entry.get(t, 0) + c

    for (i, j), terms in h.constants.items():
        for t, c in terms.items():
            add(hi[i], hi[j], hi[t], c)
    for (i, j), terms in base.algebra.constants.items():
        for t, c in terms.items():
            add(gi[i], gi[j], gi[t], c)
    gram_rows = base.form.rows
    for k, dk in enumerate(d.psi):
        cols = dict(enumerate(dk.columns))
        for s, col in cols.items():  # psi(Z_k)(X_s)
            for r, c in col.items():
                add(hi[k], gi[s], gi[r], c)
        # phi(X_i, X_j)(Z_k) for i <= j
        for i, row in _combine(cols, gram_rows).items():
            for j, v in row.items():
                if j >= i:
                    add(gi[i], gi[j], fi[k], -v if hp[k] and (gp[i] + gp[j]) % 2 else v)
    # pi(Z_i)(f_t) = -(-1)^{z f} sum_w c_{iw}^t f_w
    for (i, w), terms in h.bracket_table.items():
        for t, c in terms.items():
            add(hi[i], fi[t], fi[w], c if hp[i] and hp[t] else -c)
    algebra = LieSuperalgebra.from_index_table(
        new_basis, [(a, b, terms) for (a, b), terms in rows.items()]
    )
    form_rows: list[dict[int, Rat]] = [{} for _ in range(2 * nh + ng)]
    for i, row in enumerate(gram_rows):
        form_rows[gi[i]] = {gi[j]: v for j, v in row.items()}
    for i, row in enumerate(d.gamma.rows if d.gamma is not None else ()):
        form_rows[hi[i]] = {hi[j]: v for j, v in row.items()}
    for k in range(nh):  # f(W) and (-1)^{xy} g(Z)
        form_rows[fi[k]][hi[k]] = 1
        form_rows[hi[k]][fi[k]] = -1 if hp[k] else 1
    form = BilinearForm(basis=new_basis, rows=form_rows)
    return QuadraticLieSuperalgebra(algebra=algebra, form=form)


def _require_extension(
    out: QuadraticLieSuperalgebra, base: QuadraticLieSuperalgebra
) -> QuadraticLieSuperalgebra:
    """out, a double extension of base by a valid datum, once validated.
    A valid base and datum always yield a valid quadratic structure, so
    only when out fails is the base validated: an invalid base is an
    input error, a valid one an internal error."""
    check = validate_quadratic(out)
    if not check.ok:
        validate_quadratic(base)._raise_first("extension base invalid", InputError)
        check._raise_first("double extension of a valid datum failed validation", EngineError)
    return out


def one_dim_double_extension(
    q: QuadraticLieSuperalgebra,
    deriv: Superderivation,
    *,
    labels: tuple[str, str] = ("e", "f"),
) -> QuadraticLieSuperalgebra:
    """Double extension by a 1-dimensional even h = C e.

    [X,Y]~ = [X,Y] + B(D X, Y) f,  [e, X] = D X,  [f, .] = 0,
    B~(e,f) = 1, B~ restricted to g is B, e and f are isotropic.
    The basis is e, the evens of g, f, the odds of g.  Built directly from
    the displayed formulas and through the general constructor (where f
    is labelled e*); the two must agree exactly.  Having equal constants,
    form rows and parities, they pass or fail the same rules, so only the
    direct one is validated, and it keeps that result.
    """
    _require_quadratic(q, "one_dim_double_extension")
    if not isinstance(deriv, Superderivation):
        raise InputError(f"the derivation must be a Superderivation, not {type(deriv).__name__}")
    if deriv.degree != 0:
        raise InputError("a 1-dimensional double extension needs an even map")
    if not (isinstance(labels, (tuple, list)) and len(labels) == 2):
        raise InputError(f"labels must be a pair of basis labels (e, f), not {labels!r}")
    e_label, f_label = labels
    h = LieSuperalgebra(
        basis=GradedBasis(labels=(e_label,), parities=(0,)), constants={}
    )
    general = _assemble(ExtensionDatum(base=q, h=h, psi=(deriv,)))
    ng, ne = q.basis.dim, q.basis.even_dim
    basis = GradedBasis(
        labels=(e_label, *q.basis.labels[:ne], f_label, *q.basis.labels[ne:]),
        parities=(0,) * (ne + 2) + (1,) * (ng - ne),
    )
    new = [1 + t if t < ne else 2 + t for t in range(ng)]
    rows = {
        (new[i], new[j]): {new[t]: c for t, c in terms.items()}
        for (i, j), terms in q.algebra.constants.items()
    }
    cols = dict(enumerate(deriv.columns))
    for i, row in _combine(cols, q.form.rows).items():
        for j, v in row.items():
            if j >= i:  # B(D X_i, X_j) f
                rows.setdefault((new[i], new[j]), {})[ne + 1] = v
    for s, col in cols.items():  # [e, X_s] = D X_s
        if col:
            rows[0, new[s]] = {new[r]: c for r, c in col.items()}
    algebra = LieSuperalgebra.from_index_table(
        basis, [(a, b, terms) for (a, b), terms in rows.items()]
    )
    form_rows: list[dict[int, Rat]] = [{} for _ in range(ng + 2)]
    form_rows[0], form_rows[ne + 1] = {ne + 1: 1}, {0: 1}  # B~(e, f) = 1
    for i, row in enumerate(q.form.rows):
        form_rows[new[i]] = {new[j]: v for j, v in row.items()}
    direct = QuadraticLieSuperalgebra(algebra, BilinearForm(basis, form_rows))
    if (
        general.basis.labels != basis.labels[: ne + 1] + (e_label + "*",) + basis.labels[ne + 2 :]
        or general.basis.parities != basis.parities
        or general.algebra.constants != algebra.constants
        or general.form.rows != direct.form.rows
    ):
        raise EngineError(
            "one-dimensional double extension: direct formulas and the "
            "general constructor disagree"
        )
    return _require_extension(direct, q)


def central_reduction(
    q: QuadraticLieSuperalgebra, z: str, x: str
) -> tuple[QuadraticLieSuperalgebra, Superderivation]:
    """q as a one-dimensional double extension: the base and D.

    z must be an even central vector and x an even vector with
    B(x, z) = 1, both isotropic and B-orthogonal to every other basis
    vector.  The other basis vectors then span a copy of z^perp / z: the
    base, with the bracket less its z-component and the restricted form;
    D = ad x there.  Certificate, on every call: the double extension
    ``one_dim_double_extension(base, D, labels=(x, z))``, put back in q's
    basis order, is q exactly.  That output is validated, so an invalid q
    cannot pass; q itself is validated only when the rebuild fails, to
    tell an input error (q invalid) from an engine fault.
    """
    _require_quadratic(q, "central_reduction")
    basis = q.basis
    iz, ix = basis.index(z), basis.index(x)
    if basis.parities[iz] or basis.parities[ix]:
        raise InputError(f"central_reduction needs even {z} and {x}")
    if any(iz in pair for pair in q.algebra.constants):
        raise InputError(f"{z} is not central")
    if q.form.rows[iz] != {ix: 1} or q.form.rows[ix] != {iz: 1}:
        raise InputError(
            f"{x} and {z} must be isotropic, with B({x}, {z}) = 1 and "
            "B-orthogonal to every other basis vector"
        )
    keep = [i for i in range(basis.dim) if i not in (iz, ix)]
    new = {i: k for k, i in enumerate(keep)}
    sub = GradedBasis(
        labels=tuple(basis.labels[i] for i in keep),
        parities=tuple(basis.parities[i] for i in keep),
    )
    constants = {}
    for (i, j), terms in q.algebra.constants.items():
        entry = {new[t]: c for t, c in terms.items() if t in new}
        if i in new and j in new and entry:
            constants[new[i], new[j]] = entry
    base = QuadraticLieSuperalgebra(
        algebra=LieSuperalgebra(basis=sub, constants=constants),
        form=BilinearForm(
            basis=sub,
            rows=[{new[j]: v for j, v in q.form.rows[i].items() if j in new} for i in keep],
        ),
    )
    ad = ad_superderivation(q, x).columns
    deriv = Superderivation._of_columns(
        [{new[r]: c for r, c in ad[s].items() if r in new} for s in keep], 0
    )
    try:
        rebuilt = reorder_quadratic(
            one_dim_double_extension(base, deriv, labels=(x, z)), basis.labels
        )
    except (InputError, EngineError):
        _require_valid(q)
        raise
    if rebuilt.algebra.constants != q.algebra.constants or rebuilt.form != q.form:
        _require_valid(q)
        raise EngineError(
            f"central reduction by ({z}, {x}): the double extension of the "
            "base does not rebuild the algebra"
        )
    return base, deriv


def _require_valid(q: QuadraticLieSuperalgebra) -> None:
    if not validate_quadratic(q).ok:
        raise InputError("central_reduction needs a valid quadratic Lie superalgebra")
