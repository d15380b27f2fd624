"""Superderivations and double extensions of quadratic Lie superalgebras.

A double extension glues a Lie superalgebra h, a quadratic Lie
superalgebra (g, B), and a morphism psi from h into the skew-supersymmetric
superderivations of g into a quadratic structure on h (+) g (+) h*.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    GradedBasis,
    LieSuperalgebra,
    ValidationReport,
    Violation,
    validate_lie_superalgebra,
)
from .errors import EngineError, InputError
from .linalg import Rat, _combine, _sparse_rows, echelon_basis, nullspace, rat, transpose
from .quadratic import (
    BilinearForm,
    QuadraticLieSuperalgebra,
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
]


@dataclass(frozen=True)
class Superderivation:
    """A homogeneous endomorphism candidate of degree alpha (0 or 1).

    The matrix acts on coordinate columns: (D v)_i = sum_j m[i][j] v_j.
    """

    matrix: tuple[tuple[Rat, ...], ...]
    degree: int

    def __post_init__(self) -> None:
        if self.degree not in (0, 1):
            raise InputError("superderivation degree must be 0 or 1")
        n = len(self.matrix)
        rows = []
        for row in self.matrix:
            if len(row) != n:
                raise InputError("superderivation matrix must be square")
            rows.append(tuple(rat(v) for v in row))
        object.__setattr__(self, "matrix", tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def column(self, j: int) -> list[Rat]:
        return [self.matrix[i][j] for i in range(self.dim)]

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.matrix for v in row)


def _grading_violations(
    basis: GradedBasis, matrix: tuple[tuple[Rat, ...], ...], degree: int
) -> list[Violation]:
    out: list[Violation] = []
    for j in range(basis.dim):
        for i in range(basis.dim):
            if matrix[i][j] == 0:
                continue
            if basis.parities[i] != (basis.parities[j] + degree) % 2:
                out.append(
                    Violation(
                        rule="superderivation-grading",
                        witness=(basis.labels[i], basis.labels[j]),
                        message=(
                            f"entry ({i},{j}) maps parity {basis.parities[j]} "
                            f"into parity {basis.parities[i]}, but the degree "
                            f"is {degree}"
                        ),
                    )
                )
    return out


def is_superderivation(
    g: LieSuperalgebra, matrix, degree: int
) -> ValidationReport:
    """Check D[X,Y] = [DX,Y] + (-1)^{alpha x}[X,DY] on all basis pairs."""
    d = matrix if isinstance(matrix, Superderivation) else Superderivation(
        matrix=tuple(tuple(row) for row in matrix), degree=degree
    )
    if d.degree != degree:
        raise InputError("degree argument disagrees with the Superderivation")
    basis = g.basis
    if d.dim != basis.dim:
        raise InputError("matrix size does not match the algebra dimension")
    violations = _grading_violations(basis, d.matrix, degree)
    table = g.bracket_table()
    cols = _sparse_rows(transpose(d.matrix))  # column s of D as {r: D[r][s]}
    for i in range(basis.dim):
        sign = -1 if degree and basis.parities[i] else 1
        for j in range(i, basis.dim):
            # D[e_i, e_j] - [D e_i, e_j] - (-1)^{alpha x}[e_i, D e_j]
            acc: dict[int, Rat] = {}
            for t, c in table.get((i, j), {}).items():
                for r, x in cols[t].items():
                    acc[r] = acc.get(r, 0) + c * x
            for s, c in cols[i].items():
                for r, x in table.get((s, j), {}).items():
                    acc[r] = acc.get(r, 0) - c * x
            for s, c in cols[j].items():
                for r, x in table.get((i, s), {}).items():
                    acc[r] = acc.get(r, 0) - sign * c * x
            if any(acc.values()):
                violations.append(
                    Violation(
                        rule="superderivation-leibniz",
                        witness=(basis.labels[i], basis.labels[j]),
                        message=(
                            f"D[{basis.labels[i]},{basis.labels[j]}] != "
                            f"[D{basis.labels[i]},{basis.labels[j]}] + "
                            f"(-1)^(alpha.x)[{basis.labels[i]},D{basis.labels[j]}]"
                        ),
                    )
                )
    return ValidationReport(violations=tuple(violations))


def is_skew_superderivation(
    q: QuadraticLieSuperalgebra, matrix, degree: int
) -> ValidationReport:
    """Superderivation check plus B(DX,Y) = -(-1)^{alpha x} B(X,DY)."""
    d = matrix if isinstance(matrix, Superderivation) else Superderivation(
        matrix=tuple(tuple(row) for row in matrix), degree=degree
    )
    report = is_superderivation(q.algebra, d, degree)
    violations = list(report.violations)
    basis = q.basis
    gram = q.form.gram
    cols = dict(enumerate(_sparse_rows(transpose(d.matrix))))
    left = _combine(cols, _sparse_rows(gram))  # i -> {j: B(D e_i, e_j)}
    right = _combine(cols, _sparse_rows(transpose(gram)))  # j -> {i: B(e_i, D e_j)}
    for i in range(basis.dim):
        sign = -1 if degree and basis.parities[i] else 1
        for j in range(basis.dim):
            if left[i].get(j, 0) != -sign * right[j].get(i, 0):
                violations.append(
                    Violation(
                        rule="skew-supersymmetry-of-derivation",
                        witness=(basis.labels[i], basis.labels[j]),
                        message=(
                            f"B(D{basis.labels[i]},{basis.labels[j]}) != "
                            f"-(-1)^(alpha.x) B({basis.labels[i]},D{basis.labels[j]})"
                        ),
                    )
                )
    return ValidationReport(violations=tuple(violations))


def skew_superderivation_space(
    q: QuadraticLieSuperalgebra, degree: int
) -> list[Superderivation]:
    """Echelon basis of the space of skew-supersymmetric superderivations.

    The Leibniz and skew constraints are linear in the matrix entries; the
    space is the joint kernel, restricted to the parity-compatible block.
    """
    if degree not in (0, 1):
        raise InputError("superderivation degree must be 0 or 1")
    g = q.algebra
    basis = q.basis
    n = basis.dim
    # unknowns: entries (i, j) with parity(i) = parity(j) + degree
    slots = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if basis.parities[i] == (basis.parities[j] + degree) % 2
    ]
    slot_index = {s: k for k, s in enumerate(slots)}
    rows: list[dict[int, Rat]] = []  # {slot: coefficient}, zeros dropped

    # Leibniz: for each basis pair i <= j and each output coordinate r:
    # sum_t c_t D[r][t] - [D e_i, e_j]_r - sign [e_i, D e_j]_r = 0
    table = g.bracket_table()
    for i in range(n):
        sign = -1 if degree and basis.parities[i] else 1
        for j in range(i, n):
            coeffs: list[dict[int, Rat]] = [dict() for _ in range(n)]

            def add(slot: tuple[int, int], r: int, value: Rat) -> None:
                k = slot_index.get(slot)
                if k is None:
                    return
                coeffs[r][k] = coeffs[r].get(k, 0) + value

            for t, c in table.get((i, j), {}).items():
                for r in range(n):
                    add((r, t), r, c)
            # [D e_i, e_j] = sum_s D[s][i] [e_s, e_j], and its mirror
            for s in range(n):
                for r, c in table.get((s, j), {}).items():
                    add((s, i), r, -c)
                for r, c in table.get((i, s), {}).items():
                    add((s, j), r, -sign * c)
            rows.extend(row for r in range(n) if (row := {k: v for k, v in coeffs[r].items() if v}))
    # skew: B(D e_i, e_j) + sign_i B(e_i, D e_j) = 0 for all i, j
    gram_rows = _sparse_rows(q.form.gram)
    gram_cols = _sparse_rows(transpose(q.form.gram))
    for i in range(n):
        sign = -1 if degree and basis.parities[i] else 1
        for j in range(n):
            row: dict[int, Rat] = {}
            for s, v in gram_cols[j].items():
                if (k := slot_index.get((s, i))) is not None:
                    row[k] = row.get(k, 0) + v
            for s, w in gram_rows[i].items():
                if (k := slot_index.get((s, j))) is not None:
                    row[k] = row.get(k, 0) + sign * w
            if row := {k: v for k, v in row.items() if v}:
                rows.append(row)
    if not slots:
        return []
    if not rows:
        vectors = [
            [Fraction(1) if t == k else Fraction(0) for t in range(len(slots))]
            for k in range(len(slots))
        ]
    else:
        vectors = nullspace(rows, cols=len(slots))
        vectors = echelon_basis(vectors) if vectors else []
    out: list[Superderivation] = []
    for v in vectors:
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for k, (i, j) in enumerate(slots):
            matrix[i][j] = v[k]
        out.append(
            Superderivation(
                matrix=tuple(tuple(row) for row in matrix), degree=degree
            )
        )
    return out


def ad_superderivation(q: QuadraticLieSuperalgebra, label: str) -> Superderivation:
    """ad(X) for a homogeneous basis vector X, packaged with its degree."""
    idx = q.basis.index(label)
    return Superderivation(
        matrix=tuple(tuple(row) for row in q.algebra.ad_matrix(q.algebra.basis_vector(idx))),
        degree=q.basis.parities[idx],
    )


@dataclass(frozen=True)
class ExtensionDatum:
    """Input package for a double extension: h, (g, B), psi, gamma."""

    base: QuadraticLieSuperalgebra
    h: LieSuperalgebra
    psi: tuple[Superderivation, ...]
    gamma: BilinearForm | None = None

    def __post_init__(self) -> None:
        if len(self.psi) != self.h.basis.dim:
            raise InputError("psi must assign one derivation per h basis vector")


def validate_extension_datum(d: ExtensionDatum) -> ValidationReport:
    violations: list[Violation] = []
    violations.extend(validate_lie_superalgebra(d.h).violations)
    basis = d.base.basis
    hbasis = d.h.basis
    for k, dk in enumerate(d.psi):
        if dk.dim != basis.dim:
            raise InputError("psi matrices must match the base dimension")
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
    h_table = d.h.bracket_table()
    cols = [_sparse_rows(transpose(dk.matrix)) for dk in d.psi]  # column s: {r: psi[r][s]}
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
        if d.gamma.basis != hbasis:
            raise InputError("gamma must be a bilinear form on the h basis")
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
    The datum is validated first; the output is validated afterwards, and a
    failure there is an internal error, since a valid datum always yields a
    valid quadratic structure.
    """
    report = validate_extension_datum(d)
    if not report.ok:
        first = report.violations[0]
        raise InputError(
            f"extension datum invalid: {first.rule} at {first.witness}: "
            f"{first.message}"
        )
    base, h = d.base, d.h
    nh, ng = h.basis.dim, base.basis.dim
    h_labels, g_labels, dual_labels = _extension_labels(d)
    parities = (
        list(h.basis.parities) + list(base.basis.parities) + list(h.basis.parities)
    )
    labels = h_labels + g_labels + dual_labels
    # sort into evens-then-odds while remembering original positions
    order = sorted(range(len(labels)), key=lambda t: (parities[t], t))
    new_labels = tuple(labels[t] for t in order)
    new_parities = tuple(parities[t] for t in order)
    new_basis = GradedBasis(labels=new_labels, parities=new_parities)
    position = {t: k for k, t in enumerate(order)}  # old index -> new index

    def old_parity(t: int) -> int:
        return parities[t]

    def bracket_old(i: int, j: int) -> dict[int, Rat]:
        """Bracket of old-indexed basis vectors, result in old indices."""
        x, y = old_parity(i), old_parity(j)
        sign_xy = -1 if (x * y) % 2 else 1
        out: dict[int, Rat] = {}

        def add(t: int, v: Rat) -> None:
            if v == 0:
                return
            out[t] = out.get(t, Fraction(0)) + v
            if out[t] == 0:
                del out[t]

        in_h = lambda t: t < nh
        in_g = lambda t: nh <= t < nh + ng
        in_dual = lambda t: t >= nh + ng
        if in_h(i) and in_h(j):
            for t, c in h.bracket_pair(i, j).items():
                add(t, c)
        elif in_h(i) and in_g(j):
            col = d.psi[i].column(j - nh)
            for r in range(ng):
                add(nh + r, col[r])
        elif in_g(i) and in_h(j):
            col = d.psi[j].column(i - nh)
            for r in range(ng):
                add(nh + r, Fraction(-sign_xy) * col[r])
        elif in_h(i) and in_dual(j):
            # pi(Z)(g) with Z = e_i, g = dual_j: result in h*
            gp = old_parity(j)
            sign = -1 if (old_parity(i) * gp) % 2 else 1
            for w in range(nh):
                c = h.bracket_pair(i, w).get(j - nh - ng, Fraction(0))
                add(nh + ng + w, Fraction(-sign) * c)
        elif in_dual(i) and in_h(j):
            fp = old_parity(i)
            sign_pi = -1 if (old_parity(j) * fp) % 2 else 1
            for w in range(nh):
                c = h.bracket_pair(j, w).get(i - nh - ng, Fraction(0))
                add(nh + ng + w, Fraction(sign_xy) * Fraction(sign_pi) * c)
        elif in_g(i) and in_g(j):
            for t, c in base.algebra.bracket_pair(i - nh, j - nh).items():
                add(nh + t, c)
            # phi(X,Y)(Z_k) = (-1)^{(x+y)z} B(psi(Z_k)(X), Y)
            for k in range(nh):
                z = h.basis.parities[k]
                sign = -1 if ((x + y) * z) % 2 else 1
                val = base.form.value(
                    d.psi[k].column(i - nh), base.algebra.basis_vector(j - nh)
                )
                add(nh + ng + k, Fraction(sign) * val)
        # g with h*, h* with h*, and anything else: zero
        return out

    table: list[tuple[int, int, dict[int, Rat]]] = []
    total = nh + ng + nh
    for inew in range(total):
        for jnew in range(inew, total):
            iold = order[inew]
            jold = order[jnew]
            br = bracket_old(iold, jold)
            if br:
                table.append(
                    (inew, jnew, {position[t]: v for t, v in br.items()})
                )
    algebra = LieSuperalgebra.from_index_table(new_basis, table)
    # the extended form
    gram = [[Fraction(0)] * total for _ in range(total)]
    for inew in range(total):
        for jnew in range(total):
            i, j = order[inew], order[jnew]
            x, y = old_parity(i), old_parity(j)
            v = Fraction(0)
            if i < nh and j < nh:
                v = d.gamma.gram[i][j] if d.gamma is not None else Fraction(0)
            elif nh <= i < nh + ng and nh <= j < nh + ng:
                v = base.form.gram[i - nh][j - nh]
            elif i >= nh + ng and j < nh:
                # f(W)
                v = Fraction(1) if i - nh - ng == j else Fraction(0)
            elif i < nh and j >= nh + ng:
                sign = -1 if (x * y) % 2 else 1
                v = Fraction(sign) if j - nh - ng == i else Fraction(0)
            gram[inew][jnew] = v
    form = BilinearForm(basis=new_basis, gram=tuple(tuple(r) for r in gram))
    out = QuadraticLieSuperalgebra(algebra=algebra, form=form)
    check = validate_quadratic(out)
    if not check.ok:
        first = check.violations[0]
        raise EngineError(
            "double extension of a valid datum failed validation: "
            f"{first.rule} at {first.witness}: {first.message}"
        )
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
    Built through the general constructor and re-derived directly from the
    displayed formulas; the two must agree exactly.
    """
    if deriv.degree != 0:
        raise InputError("a 1-dimensional double extension needs an even map")
    e_label, f_label = labels
    hbasis = GradedBasis(labels=(e_label,), parities=(0,))
    h = LieSuperalgebra.from_index_table(hbasis, [])
    # general path; relabel the dual from "e*" to the requested f label
    general = double_extension(
        ExtensionDatum(base=q, h=h, psi=(deriv,), gamma=None)
    )
    mapping = {e_label + "*": f_label}
    relabeled = GradedBasis(
        labels=tuple(mapping.get(lab, lab) for lab in general.basis.labels),
        parities=general.basis.parities,
    )
    general = QuadraticLieSuperalgebra(
        algebra=LieSuperalgebra(
            basis=relabeled, constants=general.algebra.constants
        ),
        form=BilinearForm(basis=relabeled, gram=general.form.gram),
    )
    # direct path from the displayed formulas
    ng = q.basis.dim
    ne = q.basis.even_dim
    labels_direct = (
        [e_label]
        + list(q.basis.labels[:ne])
        + [f_label]
        + list(q.basis.labels[ne:])
    )
    parities_direct = [0] * (ne + 2) + [1] * (ng - ne)
    dbasis = GradedBasis(labels=tuple(labels_direct), parities=tuple(parities_direct))

    def to_new(t: int) -> int:
        # base index -> direct-basis index
        return 1 + t if t < ne else 2 + t

    rows: list[tuple[int, int, dict[int, Rat]]] = []
    for i in range(ng):
        for j in range(i, ng):
            terms: dict[int, Rat] = {}
            for t, c in q.algebra.bracket_pair(i, j).items():
                terms[to_new(t)] = c
            pairing = q.form.value(
                deriv.column(i), q.algebra.basis_vector(j)
            )
            if pairing != 0:
                terms[ne + 1] = terms.get(ne + 1, Fraction(0)) + pairing
            if terms:
                rows.append((to_new(i), to_new(j), terms))
    for i in range(ng):
        col = deriv.column(i)
        terms = {to_new(t): col[t] for t in range(ng) if col[t] != 0}
        if terms:
            rows.append((0, to_new(i), terms))
    direct_algebra = LieSuperalgebra.from_index_table(dbasis, rows)
    gram = [[Fraction(0)] * (ng + 2) for _ in range(ng + 2)]
    gram[0][ne + 1] = Fraction(1)
    gram[ne + 1][0] = Fraction(1)
    for i in range(ng):
        for j in range(ng):
            gram[to_new(i)][to_new(j)] = q.form.gram[i][j]
    direct = QuadraticLieSuperalgebra(
        algebra=direct_algebra,
        form=BilinearForm(basis=dbasis, gram=tuple(tuple(r) for r in gram)),
    )
    if (
        direct.basis != general.basis
        or direct.algebra.constants != general.algebra.constants
        or direct.form.gram != general.form.gram
    ):
        raise EngineError(
            "one-dimensional double extension: direct formulas and the "
            "general constructor disagree"
        )
    return general
