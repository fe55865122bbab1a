#!/usr/bin/env python3
"""Compare the data sections of two fluxnet CLI outputs.

    python scripts/compare_data_sections.py A.csv B.csv --rtol R
    python scripts/compare_data_sections.py DIR_A DIR_B --rtol R

Given two directories (say the ``--out-dir`` of
``scripts/reproduce_figures.py`` at two commits), each pair of same-named
files is compared and reported on its own line; a file in only one of them
counts as a difference.

Only the lines that do not start with ``#`` are compared; the manifest
above them (paths, hashes, wall clock) is ignored.  The two sections must
have the same number of rows and, row by row, the same number of
comma-separated fields.  A field that is not a finite number (a header
name, ``true`` / ``false``, ``nan``, ``inf``) must be identical.  A
parenthesized, space-separated vector of finite numbers (the tilt labels
of ``simulate``) is numeric, compared entry by entry.  For the
numeric fields the largest difference ``|a - b| / max(|a|, |b|, 1)`` is
reported: relative for magnitudes above 1 and absolute below, so entries
that vanish in exact arithmetic (the anomaly of an interior point) are not
divided by their own rounding noise.

Exit status: 0 when every pair of sections matches with its largest
difference at most R, 1 otherwise, 2 on a usage error.
"""

import argparse
import math
import sys
from pathlib import Path


def data_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n").split(",") for line in handle
                if not line.startswith("#")]


def finite(field: str) -> float | None:
    try:
        value = float(field)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def numbers(field: str) -> list[float] | None:
    """The finite number of a field, or the entries of a ``(x y ...)``
    vector of them; ``None`` for anything else."""
    if field.startswith("(") and field.endswith(")"):
        values = [finite(entry) for entry in field[1:-1].split()]
        return values if values and None not in values else None
    value = finite(field)
    return None if value is None else [value]


def compare(rows_a: list[list[str]], rows_b: list[list[str]]) -> tuple[float, str]:
    """Largest numeric difference and where it is.

    Raises ``ValueError`` when the rows or the non-numeric fields differ.
    """
    if len(rows_a) != len(rows_b):
        raise ValueError(f"{len(rows_a)} rows against {len(rows_b)}")
    header = rows_a[0] if rows_a else []
    worst, where = 0.0, "no numeric field differs"
    for index, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        if len(row_a) != len(row_b):
            raise ValueError(f"row {index}: {len(row_a)} fields against {len(row_b)}")
        for column, (a, b) in enumerate(zip(row_a, row_b)):
            if a == b:
                continue
            xs, ys = numbers(a), numbers(b)
            if xs is None or ys is None or len(xs) != len(ys):
                raise ValueError(f"row {index}, field {column}: {a!r} against {b!r}")
            diff = max(abs(x - y) / max(abs(x), abs(y), 1.0) for x, y in zip(xs, ys))
            if diff > worst:
                name = header[column] if column < len(header) else str(column)
                worst, where = diff, f"row {index}, {name}: {a} against {b}"
    return worst, where


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first CLI output, or a directory of them")
    parser.add_argument("b", help="second CLI output, or a directory of them")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest numeric difference allowed (default 0)")
    args = parser.parse_args(argv)
    if not args.rtol >= 0.0:
        parser.error("--rtol must be a non-negative number")
    a, b = Path(args.a), Path(args.b)
    if a.is_dir() != b.is_dir():
        parser.error("give two files or two directories")
    if a.is_dir():
        names = {p.name for p in a.iterdir() if p.is_file()}
        names |= {p.name for p in b.iterdir() if p.is_file()}
        pairs = [(f"{name}: ", a / name, b / name) for name in sorted(names)]
    else:
        pairs = [("", a, b)]
    status = 0
    for prefix, path_a, path_b in pairs:
        missing = [path for path in (path_a, path_b) if not path.exists()]
        if prefix and missing:
            print(f"{prefix}missing from {missing[0].parent}")
            status = 1
            continue
        try:
            rows_a, rows_b = data_rows(path_a), data_rows(path_b)
        except OSError as exc:
            parser.error(str(exc))
        try:
            worst, where = compare(rows_a, rows_b)
        except ValueError as exc:
            print(f"{prefix}data sections differ: {exc}")
            status = 1
            continue
        print(f"{prefix}largest difference {worst:.3e} ({where})")
        if worst > args.rtol:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
