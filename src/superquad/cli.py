"""Command-line interface.

Verbs: list, validate, cohomology, betti, poisson, double-extend, export.
Targets are catalog keys or JSON algebra files.  Exit codes: 0 success,
1 validation failure, 2 usage or input error, 3 internal error (any other
``EngineError``).  ``betti``, ``cohomology`` and ``double-extend``
validate the algebra first and exit 1 on a violation.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import catalog, serialization
from .algebra import ValidationReport, validate_lie_superalgebra
from .cochains import Cochain, differential_direct, differential_via_poisson, monomials_of_degree
from .cohomology import _complex, cohomology_report
from .errors import EngineError, InputError, ResourceLimitError
from .extensions import Superderivation, is_skew_superderivation, one_dim_double_extension
from .linalg import rat, rat_str
from .quadratic import QuadraticLieSuperalgebra, validate_quadratic

__all__ = ["main"]


def _parse_params(items: list[str] | None) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for item in items or []:
        if "=" not in item:
            raise InputError(
                f"bad --param {item!r}: expected name=p/q"
            )
        name, _, raw = item.partition("=")
        name = name.strip()
        if not name:
            raise InputError(f"bad --param {item!r}: empty name")
        out[name] = rat(raw.strip())
    return out


def _resolve_target(target: str, params: dict[str, Fraction]):
    """A target is a catalog key unless it names a file on disk."""
    looks_like_path = (
        os.path.sep in target
        or target.endswith(".json")
        or os.path.exists(target)
    )
    if looks_like_path:
        if params:
            raise InputError("--param applies to catalog keys, not files")
        return serialization.load(target)
    return catalog.build(target, params)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _violations_payload(report: ValidationReport) -> list[dict]:
    return [
        {
            "rule": v.rule,
            "witness": list(v.witness),
            "message": v.message,
        }
        for v in report.violations
    ]


def _cmd_list(args) -> int:
    entries = [catalog.get_entry(k) for k in catalog.catalog_keys()]
    if args.format == "json":
        doc = {
            "schema": 1,
            "kind": "catalog",
            "entries": [
                {
                    "key": e.key,
                    "description": e.description,
                    "quadratic": e.quadratic,
                    "params": [
                        {
                            "name": p.name,
                            "default": rat_str(p.default),
                            "constraint": p.constraint,
                        }
                        for p in e.params
                    ],
                }
                for e in entries
            ],
        }
        _emit(_json_dump(doc), None)
        return 0
    lines = []
    for e in entries:
        if e.params:
            plist = ", ".join(
                f"{p.name} (default {rat_str(p.default)}; {p.constraint})"
                for p in e.params
            )
        else:
            plist = "none"
        lines.append(e.key)
        lines.append(f"  parameters: {plist}")
        lines.append(f"  {e.description}")
    _emit("\n".join(lines) + "\n", None)
    return 0


def _validation(obj) -> tuple[ValidationReport, str]:
    if isinstance(obj, QuadraticLieSuperalgebra):
        return validate_quadratic(obj), "quadratic Lie superalgebra"
    return validate_lie_superalgebra(obj), "Lie superalgebra"


def _violation_lines(report: ValidationReport) -> list[str]:
    return [
        f"violation: {v.rule} at ({', '.join(map(str, v.witness))}): {v.message}"
        for v in report.violations
    ]


def _invalid_text(report: ValidationReport) -> str:
    lines = _violation_lines(report)
    lines.append(f"INVALID: {len(report.violations)} violation(s)")
    return "\n".join(lines) + "\n"


def _cmd_validate(args) -> int:
    obj = _resolve_target(args.target, _parse_params(args.param))
    report, kind = _validation(obj)
    quadratic = isinstance(obj, QuadraticLieSuperalgebra)
    if args.format == "json":
        doc = {
            "schema": 1,
            "kind": "validation",
            "quadratic": quadratic,
            "ok": report.ok,
            "violations": _violations_payload(report),
        }
        name = obj.algebra.name if quadratic else obj.name
        if name:
            doc["name"] = name
        _emit(_json_dump(doc), None)
        return 0 if report.ok else 1
    if report.ok:
        _emit(f"{kind}: OK\n", None)
        return 0
    _emit(_invalid_text(report), None)
    return 1


def _betti_text(report: dict, representatives: bool) -> str:
    lines = [
        "k  dim C^k  dim Z^k  dim B^k  b_k",
    ]
    for row in report["table"]:
        lines.append(
            f"{row['degree']}  {row['dim_cochains']:<7}  "
            f"{row['dim_cocycles']:<7}  {row['dim_coboundaries']:<7}  "
            f"{row['betti']}"
        )
    if representatives:
        for row in report["table"]:
            reps = row.get("representatives", [])
            if reps:
                lines.append(f"degree {row['degree']} representatives:")
                lines.extend(f"  {r}" for r in reps)
    for row in report["table"]:
        lines.append(f"b_{row['degree']} = {row['betti']}")
    return "\n".join(lines) + "\n"


def _cohomology_common(args, representatives: bool) -> int:
    obj = _resolve_target(args.target, _parse_params(args.param))
    # cohomology of a table that breaks the axioms means nothing:
    # delta does not square to zero there
    report, _ = _validation(obj)
    if not report.ok:
        _emit(_invalid_text(report), None)
        return 1
    name = (
        obj.algebra.name
        if isinstance(obj, QuadraticLieSuperalgebra)
        else obj.name
    )
    report = cohomology_report(
        obj,
        args.max_degree,
        name=name or None,
        include_representatives=representatives,
    )
    if not representatives:
        report["kind"] = "betti"
    if args.format == "json":
        _emit(_json_dump(report), getattr(args, "output", None))
    else:
        _emit(_betti_text(report, representatives), getattr(args, "output", None))
    return 0


def _cmd_betti(args) -> int:
    return _cohomology_common(args, representatives=False)


def _cmd_cohomology(args) -> int:
    return _cohomology_common(args, representatives=True)


def _cmd_poisson(args) -> int:
    obj = _resolve_target(args.target, _parse_params(args.param))
    if not isinstance(obj, QuadraticLieSuperalgebra):
        raise InputError(
            "the poisson command needs a quadratic algebra (a form)"
        )
    _complex(obj).check_size(args.max_degree)
    i_i = differential_via_poisson(obj, obj._three_form)  # -{I, I}
    failures: list[str] = []
    checked = 0
    for k in range(args.max_degree + 1):
        for m in monomials_of_degree(obj.basis, k):
            c = Cochain.from_terms(obj.basis, {m: Fraction(1)})
            direct = differential_direct(obj.algebra, c)
            via = differential_via_poisson(obj, c)
            checked += 1
            if direct != via:
                failures.append(str(c))
    ok = i_i.is_zero and not failures
    if args.format == "json":
        doc = {
            "schema": 1,
            "kind": "poisson",
            "three_form": str(obj._three_form),
            "i_i_zero": i_i.is_zero,
            "max_degree": args.max_degree,
            "monomials_checked": checked,
            "differential_agreements": not failures,
            "failures": failures,
        }
        name = obj.algebra.name
        if name:
            doc["name"] = name
        _emit(_json_dump(doc), None)
        return 0 if ok else 1
    lines = [f"associated 3-form I = {obj._three_form}"]
    lines.append(f"{{I, I}} = 0: {'OK' if i_i.is_zero else 'FAIL'}")
    lines.append(
        f"delta == -{{I, .}} on monomials of degree <= {args.max_degree}: "
        + ("OK" if not failures else "FAIL")
        + f" ({checked} monomials)"
    )
    for f in failures:
        lines.append(f"  disagreement at {f}")
    _emit("\n".join(lines) + "\n", None)
    return 0 if ok else 1


def _load_derivation_matrix(path: str) -> Superderivation:
    """The even map in the JSON file at path, not yet sized to the algebra."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from None
    return Superderivation(matrix=doc, degree=0)


def _cmd_double_extend(args) -> int:
    obj = _resolve_target(args.target, _parse_params(args.param))
    if not isinstance(obj, QuadraticLieSuperalgebra):
        raise InputError("double-extend needs a quadratic base algebra")
    base_report = validate_quadratic(obj)
    if not base_report.ok:
        _emit(_invalid_text(base_report), None)
        return 1
    deriv = _load_derivation_matrix(args.derivation)
    labels = tuple(s.strip() for s in args.labels.split(","))
    if len(labels) != 2 or not all(labels):
        raise InputError("--labels must be two comma-separated names")
    report = is_skew_superderivation(obj, deriv, 0)
    if not report.ok:
        lines = _violation_lines(report)
        lines.append(
            "INVALID derivation: not an even skew-supersymmetric "
            f"superderivation ({len(report.violations)} violation(s))"
        )
        _emit("\n".join(lines) + "\n", None)
        return 1
    out = one_dim_double_extension(obj, deriv, labels=(labels[0], labels[1]))
    _emit(serialization.dumps(out), args.output)
    return 0


def _cmd_export(args) -> int:
    obj = _resolve_target(args.target, _parse_params(args.param))
    _emit(serialization.dumps(obj), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superquad",
        description=(
            "exact computations with finite-dimensional quadratic Lie "
            "superalgebras over the rationals"
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, with_output=False, with_degree=None):
        p.add_argument(
            "target", help="catalog key or path to a JSON algebra file"
        )
        p.add_argument(
            "--param",
            action="append",
            metavar="NAME=P/Q",
            help="bind a rational catalog parameter (repeatable)",
        )
        p.add_argument(
            "--format", choices=("text", "json"), default="text"
        )
        if with_output:
            p.add_argument(
                "--output", metavar="PATH", help="write to a file instead of stdout"
            )
        if with_degree is not None:
            p.add_argument(
                "--max-degree",
                type=int,
                default=with_degree,
                metavar="K",
                help=f"largest cochain degree (default {with_degree})",
            )

    p_list = sub.add_parser("list", help="list catalog entries")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.set_defaults(func=_cmd_list)

    p_val = sub.add_parser("validate", help="check the axioms")
    add_common(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_coh = sub.add_parser(
        "cohomology", help="Betti table with representatives"
    )
    add_common(p_coh, with_output=True, with_degree=3)
    p_coh.set_defaults(func=_cmd_cohomology)

    p_betti = sub.add_parser("betti", help="Betti table")
    add_common(p_betti, with_output=True, with_degree=3)
    p_betti.set_defaults(func=_cmd_betti)

    p_poisson = sub.add_parser(
        "poisson",
        help="associated 3-form and dual-differential cross-check",
    )
    add_common(p_poisson, with_degree=2)
    p_poisson.set_defaults(func=_cmd_poisson)

    p_ext = sub.add_parser(
        "double-extend",
        help="one-dimensional double extension by a derivation matrix",
    )
    add_common(p_ext, with_output=True)
    p_ext.add_argument(
        "--derivation",
        required=True,
        metavar="PATH",
        help="JSON file holding a square matrix of rationals",
    )
    p_ext.add_argument(
        "--labels",
        default="e,f",
        metavar="E,F",
        help="labels for the new generator and its dual (default e,f)",
    )
    p_ext.set_defaults(func=_cmd_double_extend)

    p_exp = sub.add_parser("export", help="emit the JSON algebra document")
    add_common(p_exp, with_output=True)
    p_exp.set_defaults(func=_cmd_export)

    return parser


# built once per process: parsing reads the parser and changes nothing in it
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
