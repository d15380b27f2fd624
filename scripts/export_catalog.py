#!/usr/bin/env python3
"""Export every catalog entry (at default parameters) as a JSON file.

Usage: python scripts/export_catalog.py [OUTPUT_DIR]

OUTPUT_DIR defaults to ``exports``.  ``-h`` or ``--help`` prints this text;
any other argument that starts with ``-`` is refused, as is a second one.
"""
from __future__ import annotations

import pathlib
import sys

from superquad import catalog, serialization


def main(argv: list[str]) -> int:
    args = argv[1:]
    if "-h" in args or "--help" in args:
        print(__doc__.strip())
        return 0
    if len(args) > 1 or args and args[0].startswith("-"):
        print(f"error: expected at most one OUTPUT_DIR, got {args}", file=sys.stderr)
        print("usage: python scripts/export_catalog.py [OUTPUT_DIR]", file=sys.stderr)
        return 2
    out_dir = pathlib.Path(args[0]) if args else pathlib.Path("exports")
    out_dir.mkdir(parents=True, exist_ok=True)
    for key in catalog.catalog_keys():
        obj = catalog.build(key)
        path = out_dir / f"{key}.json"
        serialization.save(str(path), obj)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
