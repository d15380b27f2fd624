"""JSON interchange format for (quadratic) Lie superalgebras.

Document shape::

    {
      "name": "g_4_1_s",                      # optional
      "basis": [{"label": "X0", "parity": 0}, ...],
      "brackets": [
        {"left": "Y1", "right": "Y1",
         "terms": [{"coeff": "-2", "basis": "X0"}]},
        ...
      ],
      "form": [{"left": "X0", "right": "Y0", "value": "1"}, ...]  # optional
    }

Omitted bracket pairs are zero.  Coefficients are decimal-free rational
strings ("p", "-p", "p/q").  A document with a "form" field loads as a
QuadraticLieSuperalgebra.  The loader checks only the document's shape;
each rule of the basis, the bracket and the form, and its message, comes
from the constructor (``GradedBasis``, ``LieSuperalgebra.from_index_table``,
``BilinearForm.from_pairs``), and each rational is read by ``rat``.  An
axiom-violating table loads and is then reported by the validator.
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from fractions import Fraction

from .algebra import GradedBasis, LieSuperalgebra
from .errors import InputError
from .linalg import rat, rat_str
from .quadratic import BilinearForm, QuadraticLieSuperalgebra

__all__ = [
    "algebra_to_dict",
    "algebra_from_dict",
    "dumps",
    "loads",
    "save",
    "load",
]


def algebra_to_dict(obj) -> dict:
    """Serialize a LieSuperalgebra or QuadraticLieSuperalgebra."""
    if isinstance(obj, QuadraticLieSuperalgebra):
        g, form = obj.algebra, obj.form
    elif isinstance(obj, LieSuperalgebra):
        g, form = obj, None
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")
    basis = g.basis
    doc: dict = {}
    if g.name:
        doc["name"] = g.name
    doc["basis"] = [
        {"label": basis.labels[i], "parity": basis.parities[i]}
        for i in range(basis.dim)
    ]
    brackets = []
    for i in range(basis.dim):
        for j in range(i, basis.dim):
            terms = g.constants.get((i, j))
            if not terms:
                continue
            brackets.append(
                {
                    "left": basis.labels[i],
                    "right": basis.labels[j],
                    "terms": [
                        {
                            "coeff": rat_str(terms[k]),
                            "basis": basis.labels[k],
                        }
                        for k in sorted(terms)
                    ],
                }
            )
    doc["brackets"] = brackets
    if form is not None:
        entries = []
        for i in range(basis.dim):
            for j in range(i, basis.dim):
                v = form.gram[i][j]
                if v != 0:
                    entries.append(
                        {
                            "left": basis.labels[i],
                            "right": basis.labels[j],
                            "value": rat_str(v),
                        }
                    )
        doc["form"] = entries
    return doc


def _objects(value: object, what: str, keys: tuple[str, ...]) -> list:
    """value, which must be an array of objects that each hold ``keys``."""
    if not (
        isinstance(value, list)
        and all(
            isinstance(x, Mapping) and all(k in x for k in keys)
            for x in value
        )
    ):
        raise InputError(
            f"{what} must be an array of objects with "
            + ", ".join(map(repr, keys))
        )
    return value


def algebra_from_dict(doc: Mapping):
    """Inverse of algebra_to_dict; returns a quadratic algebra iff a
    "form" field is present.  Only the document's shape is checked here:
    every rule of the basis, bracket and form is its constructor's."""
    if not isinstance(doc, Mapping):
        raise InputError("algebra document must be an object")
    items = _objects(doc.get("basis"), "'basis'", ("label", "parity"))
    if not items:
        raise InputError("'basis' must be a non-empty array")
    basis = GradedBasis(
        labels=tuple(x["label"] for x in items),
        parities=tuple(x["parity"] for x in items),
    )
    rows = []
    brackets = doc.get("brackets", [])
    for entry in _objects(brackets, "'brackets'", ("left", "right", "terms")):
        terms: dict[int, Fraction] = {}
        for term in _objects(entry["terms"], "'terms'", ("coeff", "basis")):
            k, c = basis.index(term["basis"]), rat(term["coeff"])
            terms[k] = terms[k] + c if k in terms else c
        i, j = basis.index(entry["left"]), basis.index(entry["right"])
        rows.append((i, j, terms))
    g = LieSuperalgebra.from_index_table(
        basis, rows, name=str(doc.get("name", "") or "")
    )
    if doc.get("form") is None:
        return g
    entries = _objects(doc["form"], "'form'", ("left", "right", "value"))
    form = BilinearForm.from_pairs(
        basis, [(e["left"], e["right"], e["value"]) for e in entries]
    )
    return QuadraticLieSuperalgebra(algebra=g, form=form)


def dumps(obj) -> str:
    return json.dumps(algebra_to_dict(obj), indent=2) + "\n"


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from None
    return algebra_from_dict(doc)


def save(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return loads(text)
