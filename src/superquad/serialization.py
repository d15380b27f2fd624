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
``BilinearForm.from_pairs``), and each distinct literal of a document is
read by ``rat`` once, through a memo local to the call.  An
axiom-violating table loads and is then reported by the validator.
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

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
    labels = g.basis.labels
    doc: dict = {}
    if g.name:
        doc["name"] = g.name
    doc["basis"] = [{"label": a, "parity": p} for a, p in zip(labels, g.basis.parities)]
    doc["brackets"] = [
        {
            "left": labels[i],
            "right": labels[j],
            "terms": [{"coeff": rat_str(terms[k]), "basis": labels[k]} for k in sorted(terms)],
        }
        for (i, j), terms in sorted(g.constants.items())
    ]
    if form is not None:
        doc["form"] = [
            {"left": labels[i], "right": labels[j], "value": rat_str(row[j])}
            for i, row in enumerate(form.rows)
            for j in sorted(row)
            if j >= i
        ]
    return doc


def _objects(value: object, what: str, keys: tuple[str, ...]) -> list:
    """value, which must be an array of objects that each hold ``keys``."""
    if not (
        isinstance(value, list)
        and all(
            (type(x) is dict or isinstance(x, Mapping)) and all(k in x for k in keys)
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
    literals: dict[str, Fraction] = {}  # this document's literal strings, each parsed once

    def read(x: object) -> Fraction:  # strings only: 1, 1.0 and True are one dict key
        if type(x) is str:
            return literals[x] if x in literals else literals.setdefault(x, rat(x))
        return rat(x)

    rows = []
    brackets = doc.get("brackets", [])
    for entry in _objects(brackets, "'brackets'", ("left", "right", "terms")):
        terms: dict[int, Fraction] = {}
        for term in _objects(entry["terms"], "'terms'", ("coeff", "basis")):
            k, c = basis.index(term["basis"]), read(term["coeff"])
            terms[k] = terms[k] + c if k in terms else c
        i, j = basis.index(entry["left"]), basis.index(entry["right"])
        rows.append((i, j, terms))
    name = doc.get("name")
    g = LieSuperalgebra.from_index_table(basis, rows, name="" if name is None else name)
    if doc.get("form") is None:
        return g
    entries = _objects(doc["form"], "'form'", ("left", "right", "value"))
    form = BilinearForm.from_pairs(
        basis, ((e["left"], e["right"], read(e["value"])) for e in entries)
    )
    return QuadraticLieSuperalgebra(algebra=g, form=form)


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2) + "\n"``, byte for byte, for the values
    the package writes: dicts with string keys, lists, tuples, strings,
    ints, bools and None (any other value is ``json.dumps``'s).  Both quote
    strings with the C ``encode_basestring_ascii``; what this skips is the
    pure-Python generator walk that ``json`` falls back to whenever an
    indent is set, and its check for circular references, which a freshly
    built document cannot hold."""
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(x, pad: str, out: list[str]) -> None:
    """Append x's JSON text to out, its lines after the first led by pad."""
    if type(x) is str:
        out.append(_quote(x))
    elif type(x) is int:
        out.append(repr(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner, sep = pad + "  ", "{"
        for k, v in x.items():
            out.append(f"{sep}{inner}{_quote(k)}: ")
            _write(v, inner, out)
            sep = ","
        out.append(pad + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner, sep = pad + "  ", "["
        for v in x:
            out.append(sep + inner)
            _write(v, inner, out)
            sep = ","
        out.append(pad + "]")
    else:  # a bool, None, a float: the same text at any indent
        out.append(json.dumps(x))


def dumps(obj) -> str:
    return _json_text(algebra_to_dict(obj))


def _parse(text: str, where: str = ""):
    """The JSON value in text; InputError when it is malformed or nested
    too deeply for the decoder to read."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON{where}: {exc}") from None
    except RecursionError:
        raise InputError(f"malformed JSON{where}: nested too deeply to read") from None


def loads(text: str):
    return algebra_from_dict(_parse(text))


def save(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def _read(path: str) -> str:
    """The text of the UTF-8 file at path; InputError when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def load(path: str):
    return loads(_read(path))
