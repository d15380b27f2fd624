"""Lie superalgebras by structure constants.

A finite-dimensional Lie superalgebra over the rationals is stored as a
graded basis together with the structure constants of the bracket.  The
basis is a flat list of labelled vectors, even vectors first.  The
engine reads the bracket from the sparse ``bracket_table``; only the
``Subspace`` rows it returns are dense coordinate tuples of ``Fraction``.

Conventions used throughout the package:

* parity is 0 (even) or 1 (odd);
* the bracket of homogeneous elements satisfies
  ``[x, y] = -(-1)**(|x||y|) [y, x]``, so constants are stored only for
  index pairs i <= j and the other half is derived;
* the super Jacobi identity is taken in the cyclic form
  ``(-1)**(|z||x|) [[x,y],z] + (-1)**(|x||y|) [[y,z],x]
    + (-1)**(|y||z|) [[z,x],y] = 0``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from ._frozen import Frozen
from .errors import InputError
from .linalg import Echelon, Rat, _frac, _num, _sparse_rows, rat, rat_str, reduced_kernel

if TYPE_CHECKING:
    from .quadratic import QuadraticLieSuperalgebra

Vector = tuple[Rat, ...]


class GradedBasis(Frozen):
    """Ordered homogeneous basis, all even vectors before all odd ones."""

    _fields = ("labels", "parities")

    def __init__(self, labels: tuple[str, ...], parities: tuple[int, ...]):
        if not (isinstance(labels, tuple) and isinstance(parities, tuple)):
            raise InputError("labels and parities must be tuples")
        if len(labels) != len(parities):
            raise InputError("labels and parities must have equal length")
        for label, p in zip(labels, parities):
            if not (isinstance(label, str) and label):
                raise InputError(f"basis label {label!r} is not a non-empty string")
            if type(p) is not int or p not in (0, 1):
                raise InputError(f"parity {p!r} of {label!r}: parities must be 0 or 1")
        if len(set(labels)) != len(labels):
            raise InputError("basis labels must be distinct")
        if list(parities) != sorted(parities):
            raise InputError("even basis vectors must precede odd ones")
        self.__dict__.update(labels=labels, parities=parities)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def even_dim(self) -> int:
        return self.parities.count(0)

    @property
    def odd_dim(self) -> int:
        return self.parities.count(1)

    @cached_property
    def _positions(self) -> dict[str, int]:
        """{label: its position}, built on first read."""
        return {label: i for i, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise InputError(f"unknown basis label {label!r}") from None


def _is_index(x: object, n: int) -> bool:
    """True when x is an int (not a bool) in range(n)."""
    return type(x) is int and 0 <= x < n


def _check_name(name: object) -> None:
    """InputError unless an algebra's name is a str, which ``dumps`` writes."""
    if not isinstance(name, str):
        raise InputError(f"'name' must be a string, not {type(name).__name__}")


def _table_rows(basis: GradedBasis, table: object) -> Iterator[tuple[object, object, Mapping]]:
    """The rows of a bracket table, each checked to be a triple (a, b, terms)
    with a mapping of terms, for a basis that is a ``GradedBasis``."""
    if not isinstance(basis, GradedBasis):
        raise InputError(f"basis must be a GradedBasis, not {type(basis).__name__}")
    if not isinstance(table, Iterable):
        raise InputError(f"bracket table must be an iterable of rows, not {type(table).__name__}")
    for row in table:
        if not (isinstance(row, (list, tuple)) and len(row) == 3):
            raise InputError(f"bracket row {row!r} is not (i, j, {{k: coeff}})")
        if not (type(row[2]) is dict or isinstance(row[2], Mapping)):
            raise InputError(f"bracket terms for ({row[0]!r}, {row[1]!r}) must be a mapping {{k: coeff}}")
        yield row


class LieSuperalgebra(Frozen):
    """Structure-constant presentation of a Lie superalgebra.

    ``constants[(i, j)][k]`` is the coefficient of basis vector k in
    the bracket of vectors i and j, stored only for i <= j and with all
    zero entries removed.  The i > j values follow from skew
    supersymmetry; diagonal entries (i, i) are meaningful only for odd
    i (an even diagonal bracket is forced to vanish).
    """

    _fields = ("basis", "constants", "name")

    def __init__(self, basis: GradedBasis, constants: Mapping[tuple[int, int], Mapping[int, Rat]], name: str = ""):
        if not isinstance(basis, GradedBasis):
            raise InputError(f"basis must be a GradedBasis, not {type(basis).__name__}")
        if not isinstance(constants, Mapping):
            raise InputError(f"constants must be a mapping, not {type(constants).__name__}")
        _check_name(name)
        n = basis.dim
        for key, terms in constants.items():
            if not (type(key) is tuple and len(key) == 2 and _is_index(key[0], n)
                    and _is_index(key[1], n) and key[0] <= key[1]):
                raise InputError(f"constant key {key!r} out of range or unordered")
            if not ((type(terms) is dict or isinstance(terms, Mapping)) and terms):
                raise InputError(f"constant entry for {key} must be a nonempty mapping")
            for k, c in terms.items():
                if not _is_index(k, n):
                    raise InputError(f"constant target {k!r} out of range")
                if not ((type(c) is Fraction or isinstance(c, Fraction)) and c):
                    raise InputError(f"constant for {key}->{k} must be a nonzero Fraction")
        self.__dict__.update(basis=basis, constants=constants, name=name)

    def __hash__(self) -> int:
        # equal constants are equal as frozensets of (pair, frozenset of terms)
        constants = frozenset((key, frozenset(terms.items())) for key, terms in self.constants.items())
        return hash((self.basis, constants, self.name))

    @classmethod
    def from_index_table(
        cls,
        basis: GradedBasis,
        table: Iterable[tuple[int, int, Mapping[int, object]]],
        name: str = "",
    ) -> "LieSuperalgebra":
        """Build from (i, j, {k: coeff}) rows, any index order.

        Rows with i > j are folded onto (j, i) using skew supersymmetry.
        Listing the same unordered pair twice is rejected rather than
        silently summed: duplicate rows are almost always typos.  Folding
        checks every rule of the constructor, which is then not called.
        """
        _check_name(name)
        constants: dict[tuple[int, int], dict[int, Rat]] = {}
        seen: set[tuple[int, int]] = set()
        for i, j, terms in _table_rows(basis, table):
            n = basis.dim
            if not (_is_index(i, n) and _is_index(j, n)):
                raise InputError(f"bracket indices ({i!r}, {j!r}) out of range")
            key = (i, j) if i <= j else (j, i)
            if key in seen:
                raise InputError(f"duplicate bracket entry for pair {key}")
            seen.add(key)
            negate = i > j and not (basis.parities[i] and basis.parities[j])
            entry: dict[int, Rat] = {}
            for k, c in terms.items():
                if coeff := rat(c):
                    if not _is_index(k, n):
                        raise InputError(f"constant target {k!r} out of range")
                    entry[k] = -coeff if negate else coeff
            if entry:
                constants[key] = entry
        g = cls.__new__(cls)
        g.__dict__.update(basis=basis, constants=constants, name=name)
        return g

    @classmethod
    def from_label_table(
        cls,
        basis: GradedBasis,
        table: Iterable[tuple[str, str, Mapping[str, object]]],
        name: str = "",
    ) -> "LieSuperalgebra":
        rows = [
            (basis.index(a), basis.index(b), {basis.index(t): c for t, c in terms.items()})
            for a, b, terms in _table_rows(basis, table)
        ]
        return cls.from_index_table(basis, rows, name=name)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def _jacobi(self) -> tuple[Violation, ...]:
        """``validate_super_jacobi(self)``, run once per object."""
        return tuple(validate_super_jacobi(self))

    def bracket_pair(self, i: int, j: int) -> dict[int, Rat]:
        """Bracket of basis vectors i and j as a sparse {index: coeff} map."""
        if i <= j:
            return dict(self.constants.get((i, j), {}))
        # c[j,i] is c[i,j] when both vectors are odd, -c[i,j] otherwise
        p, terms = self.basis.parities, self.constants.get((j, i), {})
        return dict(terms) if p[i] and p[j] else {k: -c for k, c in terms.items()}

    @cached_property
    def bracket_table(self) -> dict[tuple[int, int], dict[int, Rat | int]]:
        """Every nonzero bracket [e_i, e_j], in both orders, as {(i, j): {k: coeff}},
        the skew-supersymmetry sign applied once, in the kernels' form (see
        ``linalg._num``), built once per object: read it, never change it in place."""
        p = self.basis.parities
        table: dict[tuple[int, int], dict[int, Rat | int]] = {}
        for (i, j), terms in self.constants.items():
            row = {k: _num(c) for k, c in terms.items()}
            table[i, j] = row
            if i != j:
                table[j, i] = dict(row) if p[i] and p[j] else {k: -c for k, c in row.items()}
        return table

    @cached_property
    def _by_first(self) -> dict[int, list[tuple[int, dict[int, Rat | int]]]]:
        """``bracket_table`` by its first argument, m -> [(c, [e_m, e_c])], built once."""
        by_first: dict[int, list[tuple[int, dict[int, Rat | int]]]] = {}
        for (m, c), terms in self.bracket_table.items():
            by_first.setdefault(m, []).append((c, terms))
        return by_first

    @cached_property
    def _duals(self) -> list[list[tuple[int, int, int, Rat | int]]]:
        """delta(t*) for every letter t, packed (``cochains._dual_differentials``), built once."""
        from .cochains import _dual_differentials

        return _dual_differentials(self)

    @cached_property
    def _torus(self) -> list[tuple[dict[int, Rat | int], tuple[Rat | int, ...]]]:
        """The inner torus, certified (``cohomology._certified_torus``), built once."""
        from .cohomology import _certified_torus

        return _certified_torus(self)

    @cached_property
    def _weights(self) -> tuple[list[int], list[int]]:
        """The block weights (``cohomology._block_weights``), built once."""
        from .cohomology import _block_weights

        return _block_weights(self)


class Violation(Frozen):
    _fields = ("rule", "witness", "message")

    def __init__(self, rule: str, witness: tuple, message: str):
        self.__dict__.update(rule=rule, witness=witness, message=message)


class ValidationReport(Frozen):
    _fields = ("violations",)

    def __init__(self, violations: tuple[Violation, ...]):
        self.__dict__["violations"] = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def _raise_first(self, prefix: str, error: type[Exception]) -> None:
        """Raise ``error`` naming the first violation after ``prefix``, if any."""
        if self.violations:
            first = self.violations[0]
            raise error(f"{prefix}: {first.rule} at {first.witness}: {first.message}")


def validate_grading_and_skew(g: LieSuperalgebra) -> list[Violation]:
    """Check the bracket respects the grading and skew supersymmetry.

    With constants stored on i <= j only, skew supersymmetry is automatic
    off the diagonal; what remains checkable is that diagonal brackets of
    even vectors vanish and every target has the correct parity.
    """
    out: list[Violation] = []
    parities = g.basis.parities
    labels = g.basis.labels
    for (i, j), terms in sorted(g.constants.items()):
        target_parity = (parities[i] + parities[j]) % 2
        if i == j and parities[i] == 0:
            out.append(
                Violation(
                    rule="skew",
                    witness=(labels[i], labels[i]),
                    message=f"[{labels[i]}, {labels[i]}] must vanish for an even vector",
                )
            )
            continue
        for k in sorted(terms):
            if parities[k] != target_parity:
                out.append(
                    Violation(
                        rule="grading",
                        witness=(labels[i], labels[j], labels[k]),
                        message=(
                            f"[{labels[i]}, {labels[j]}] has a component on {labels[k]} "
                            f"of parity {parities[k]}, expected {target_parity}"
                        ),
                    )
                )
    return out


def validate_super_jacobi(g: LieSuperalgebra) -> list[Violation]:
    """Check the cyclic super Jacobi identity on all basis triples i <= j <= k,
    visiting only the nonzero double brackets [[e_a, e_b], e_c]: the bracket
    table, indexed by its first argument, gives them.  Each is added to the
    residual of its sorted triple (i, j, k) once for each cyclic rotation
    (i, j, k), (j, k, i), (k, i, j) that equals (a, b, c): never when
    (a, b, c) is no rotation of a sorted triple, three times when a = b = c.
    Violations come in the order of (i, j, k)."""
    out: list[Violation] = []
    p = g.basis.parities
    labels = g.basis.labels
    table, by_first = g.bracket_table, g._by_first
    acc: dict[tuple[int, int, int], dict[int, Rat | int]] = {}
    for (a, b), inner in table.items():
        for m, x in inner.items():
            for c, outer in by_first.get(m, ()):
                times = (a <= b <= c) + (c <= a <= b) + (b <= c <= a)
                if not times:
                    continue
                key = (a, b, c) if a <= b <= c else (c, a, b) if c <= a <= b else (b, c, a)
                res = acc.setdefault(key, {})
                factor = -times * x if p[c] and p[a] else times * x
                for t, y in outer.items():
                    res[t] = res.get(t, 0) + factor * y
    for i, j, k in sorted(acc):
        residual = {t: v for t, v in acc[i, j, k].items() if v}
        if residual:
            out.append(
                Violation(
                    rule="jacobi",
                    witness=(labels[i], labels[j], labels[k]),
                    message=(
                        f"super Jacobi fails on ({labels[i]}, {labels[j]}, "
                        f"{labels[k]}): residual {_sparse_str(g, residual)}"
                    ),
                )
            )
    return out


def _sparse_str(g: LieSuperalgebra, terms: Mapping[int, Rat]) -> str:
    parts = [f"{rat_str(c)}*{g.basis.labels[k]}" for k, c in sorted(terms.items())]
    return " + ".join(parts) if parts else "0"


def validate_lie_superalgebra(g: LieSuperalgebra) -> ValidationReport:
    """The grading, then super Jacobi, which runs once per object."""
    return ValidationReport(tuple(validate_grading_and_skew(g)) + g._jacobi)


def _lie(g: LieSuperalgebra | QuadraticLieSuperalgebra) -> LieSuperalgebra:
    """The Lie superalgebra of g, which may be a quadratic one."""
    lie = getattr(g, "algebra", g)
    if not isinstance(lie, LieSuperalgebra):
        raise InputError(f"expected a Lie superalgebra, not {type(g).__name__}")
    return lie


def diagonal_weights(g: LieSuperalgebra | QuadraticLieSuperalgebra) -> list[tuple[Rat | int, ...]]:
    """The torus of diagonal derivations in the given basis, per letter.

    A weight is a vector lambda with lambda_i + lambda_j = lambda_t for
    every nonzero c_ij^t, so that diag(lambda) is an even derivation.
    Entry t is (lambda^1_t, ..., lambda^r_t, |t|): the t-th coordinates
    of an exact basis lambda^1..lambda^r of the weights (one ``Echelon``
    kernel), then the parity of letter t.  Built on each call, for the
    exact kernels: an integral value is an int.
    """
    g, rows = _lie(g), []
    for (i, j), terms in g.constants.items():
        for t in terms:
            row = {i: 1}
            row[j] = row.get(j, 0) + 1
            row[t] = row.get(t, 0) - 1
            rows.append({s: x for s, x in row.items() if x})
    kernel = Echelon(rows).kernel(g.dim)
    return [tuple(v.get(t, 0) for v in kernel) + (p,) for t, p in enumerate(g.basis.parities)]


def inner_torus(
    g: LieSuperalgebra | QuadraticLieSuperalgebra,
) -> list[tuple[dict[int, Rat | int], tuple[Rat | int, ...]]]:
    """The even x whose ad x is diagonal in the given basis, as pairs
    (x, w): x as {index: nonzero} and [x, e_t] = w_t e_t.

    For x = sum_i a_i e_i over the even letters, ad x is diagonal when
    sum_i a_i c_{ij}^t = 0 for every j and every t != j: an exact basis
    of those x is one ``Echelon`` kernel.  A basis vector whose weights
    all vanish is central and left out, so the list is empty when every
    such x is central.  Built on each call, for the exact kernels: an
    integral value is an int.
    """
    g = _lie(g)
    ne, table = g.basis.even_dim, g.bracket_table
    rows: dict[tuple[int, int], dict[int, Rat | int]] = {}
    for (i, j), terms in table.items():
        if i < ne:
            for t, c in terms.items():
                if t != j:
                    rows.setdefault((j, t), {})[i] = c
    torus = []
    for x in Echelon(rows.values()).kernel(ne):
        w = tuple(sum(a * table.get((i, t), {}).get(t, 0) for i, a in x.items()) for t in range(g.dim))
        if any(w):
            torus.append((x, w))
    return torus


class Subspace(Frozen):
    """Subspace of the underlying graded vector space, rows in RREF."""

    _fields = ("ambient", "rows")

    def __init__(self, ambient: GradedBasis, rows: tuple[Vector, ...]):
        self.__dict__.update(ambient=ambient, rows=rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def from_vectors(cls, ambient: GradedBasis, vectors: Iterable[Sequence[Rat]]) -> "Subspace":
        return _subspace(ambient, Echelon(_sparse_rows(vectors)).rows)


def _subspace(ambient: GradedBasis, rows: Mapping[int, Mapping[int, Rat | int]]) -> Subspace:
    """The Subspace of reduced rows given as {pivot: {column: nonzero}}, each
    row a dense tuple of Fractions, by pivot."""
    return Subspace(ambient, tuple(tuple(_frac(rows[p].get(j, 0)) for j in range(ambient.dim)) for p in sorted(rows)))


def derived_series(g: LieSuperalgebra | QuadraticLieSuperalgebra) -> list[Subspace]:
    """Derived series g ⊇ [g,g] ⊇ [[g,g],[g,g]] ⊇ ... until it stabilizes.

    Each term after g is one ``Echelon`` of the brackets [a, b] of every
    pair of the last term's reduced rows, read off the bracket table.
    Until it stabilizes each term is strictly smaller than the one before,
    so the loop breaks within g.dim + 1 steps."""
    g = _lie(g)
    table = g.bracket_table

    def brackets(rows: list[dict[int, Rat | int]]) -> Iterator[dict[int, Rat | int]]:
        for a in rows:
            for b in rows:
                acc: dict[int, Rat | int] = {}
                for i, x in a.items():
                    for j, y in b.items():
                        for k, c in table.get((i, j), {}).items():
                            acc[k] = acc.get(k, 0) + x * y * c
                yield {k: v for k, v in acc.items() if v}

    current = {i: {i: 1} for i in range(g.dim)}
    series = [_subspace(g.basis, current)]
    for _ in range(g.dim + 1):
        nxt = Echelon(brackets(list(current.values()))).rows
        series.append(_subspace(g.basis, nxt))
        if len(nxt) in (len(current), 0):
            break
        current = nxt
    return series


def is_solvable(g: LieSuperalgebra | QuadraticLieSuperalgebra) -> bool:
    return derived_series(g)[-1].dim == 0


def center(g: LieSuperalgebra | QuadraticLieSuperalgebra) -> Subspace:
    """Center {x : [x, y] = 0 for all y}, computed per parity block.

    For x = sum_i x_i e_i the condition is sum_i x_i c_{i,j}^k = 0 for
    every j, k.  Solving separately for even and odd x keeps the result
    homogeneous; the two reduced kernels have disjoint supports, so
    stacked they are the reduced basis of the center.
    """
    g = _lie(g)
    n = g.dim
    ne = g.basis.even_dim
    rows: dict[int, dict[int, Rat | int]] = {}  # pivot -> row
    for lo, hi in ((0, ne), (ne, n)):
        system: list[dict[int, Rat]] = []
        for j in range(n):
            cols: dict[int, dict[int, Rat]] = {}
            for i in range(lo, hi):
                for k, c in g.bracket_table.get((i, j), {}).items():
                    cols.setdefault(k, {})[i - lo] = c
            system.extend(cols.values())
        for v in reduced_kernel(system, hi - lo):
            rows[lo + min(v)] = {lo + t: x for t, x in v.items()}
    return _subspace(g.basis, rows)


def reorder_basis(g: LieSuperalgebra, new_labels: Sequence[str]) -> LieSuperalgebra:
    """Same algebra with basis vectors listed in a new order.

    The new order must still put even vectors first.
    """
    if sorted(new_labels) != sorted(g.basis.labels):
        raise InputError("new order must be a permutation of the basis labels")
    old_index = {lab: i for i, lab in enumerate(g.basis.labels)}
    perm = [old_index[lab] for lab in new_labels]  # new position -> old index
    inv = {old: new for new, old in enumerate(perm)}
    basis = GradedBasis(
        labels=tuple(new_labels),
        parities=tuple(g.basis.parities[old_index[lab]] for lab in new_labels),
    )
    table = []
    for (i, j), terms in g.constants.items():
        table.append((inv[i], inv[j], {inv[k]: c for k, c in terms.items()}))
    return LieSuperalgebra.from_index_table(basis, table, name=g.name)
