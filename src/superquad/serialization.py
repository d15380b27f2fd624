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
QuadraticLieSuperalgebra; loading performs structural checks only, so an
axiom-violating table can be loaded and then reported by the validator.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .algebra import GradedBasis, LieSuperalgebra
from .errors import InputError
from .linalg import rat, rat_str
from .quadratic import BilinearForm, QuadraticLieSuperalgebra

__all__ = [
    "rational_to_str",
    "rational_from_str",
    "algebra_to_dict",
    "algebra_from_dict",
    "dumps",
    "loads",
    "save",
    "load",
]


rational_to_str = rat_str  # one renderer behind both public names


def rational_from_str(s: object) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise InputError(
            f"not a rational literal: {s!r} (expected 'p' or 'p/q')"
        )
    return rat(s)


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
                            "coeff": rational_to_str(terms[k]),
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
                            "value": rational_to_str(v),
                        }
                    )
        doc["form"] = entries
    return doc


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def algebra_from_dict(doc: Mapping):
    """Inverse of algebra_to_dict; returns a quadratic algebra iff a
    "form" field is present."""
    _require(isinstance(doc, Mapping), "algebra document must be an object")
    _require("basis" in doc, "algebra document lacks a 'basis' field")
    raw_basis = doc["basis"]
    _require(
        isinstance(raw_basis, list) and raw_basis,
        "'basis' must be a non-empty array",
    )
    labels: list[str] = []
    parities: list[int] = []
    for item in raw_basis:
        _require(
            isinstance(item, Mapping) and "label" in item and "parity" in item,
            "each basis item needs 'label' and 'parity'",
        )
        label = item["label"]
        parity = item["parity"]
        _require(
            isinstance(label, str) and label, "basis labels must be strings"
        )
        _require(
            type(parity) is int and parity in (0, 1),
            f"parity of {label!r} must be the integer 0 or 1",
        )
        labels.append(label)
        parities.append(parity)
    _require(
        len(set(labels)) == len(labels), "basis labels must be distinct"
    )
    order = sorted(range(len(labels)), key=lambda t: (parities[t], t))
    _require(
        order == list(range(len(labels))),
        "basis must list all even vectors before all odd vectors",
    )
    basis = GradedBasis(labels=tuple(labels), parities=tuple(parities))
    index = {lab: i for i, lab in enumerate(labels)}

    def lookup(label: object, where: str) -> int:
        _require(
            isinstance(label, str) and label in index,
            f"{where}: unknown basis label {label!r}",
        )
        return index[label]

    brackets = doc.get("brackets", [])
    _require(isinstance(brackets, list), "'brackets' must be an array")
    rows = []
    for entry in brackets:
        _require(
            isinstance(entry, Mapping)
            and {"left", "right", "terms"} <= set(entry),
            "each bracket entry needs 'left', 'right', 'terms'",
        )
        i = lookup(entry["left"], "bracket")
        j = lookup(entry["right"], "bracket")
        terms: dict[int, Fraction] = {}
        _require(
            isinstance(entry["terms"], list), "'terms' must be an array"
        )
        for term in entry["terms"]:
            _require(
                isinstance(term, Mapping)
                and {"coeff", "basis"} <= set(term),
                "each term needs 'coeff' and 'basis'",
            )
            k = lookup(term["basis"], "bracket term")
            c = rational_from_str(term["coeff"])
            terms[k] = terms.get(k, Fraction(0)) + c
        rows.append((i, j, terms))
    g = LieSuperalgebra.from_index_table(
        basis, rows, name=str(doc.get("name", "") or "")
    )
    if "form" not in doc or doc["form"] is None:
        return g
    pairs = []
    _require(isinstance(doc["form"], list), "'form' must be an array")
    for entry in doc["form"]:
        _require(
            isinstance(entry, Mapping)
            and {"left", "right", "value"} <= set(entry),
            "each form entry needs 'left', 'right', 'value'",
        )
        pairs.append(
            (
                basis.labels[lookup(entry["left"], "form")],
                basis.labels[lookup(entry["right"], "form")],
                rational_from_str(entry["value"]),
            )
        )
    form = BilinearForm.from_pairs(basis, pairs)
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
