#!/usr/bin/env python3
"""Compare the data sections of two fluxnet CLI outputs.

    python scripts/compare_data_sections.py A.csv B.csv --rtol R

Only the lines that do not start with ``#`` are compared; the manifest
above them (paths, hashes, wall clock) is ignored.  The two sections must
have the same number of rows and, row by row, the same number of
comma-separated fields.  A field that is not a finite number (a header
name, ``true`` / ``false``, ``nan``, ``inf``) must be identical.  For the
numeric fields the largest difference ``|a - b| / max(|a|, |b|, 1)`` is
reported: relative for magnitudes above 1 and absolute below, so entries
that vanish in exact arithmetic (the anomaly of an interior point) are not
divided by their own rounding noise.

Exit status: 0 when the sections match and the largest difference is at
most R, 1 otherwise, 2 on a usage error.
"""

import argparse
import math
import sys


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
            x, y = finite(a), finite(b)
            if x is None or y is None:
                raise ValueError(f"row {index}, field {column}: {a!r} against {b!r}")
            diff = abs(x - y) / max(abs(x), abs(y), 1.0)
            if diff > worst:
                name = header[column] if column < len(header) else str(column)
                worst, where = diff, f"row {index}, {name}: {a} against {b}"
    return worst, where


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first CLI output")
    parser.add_argument("b", help="second CLI output")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest numeric difference allowed (default 0)")
    args = parser.parse_args(argv)
    if not args.rtol >= 0.0:
        parser.error("--rtol must be a non-negative number")
    try:
        rows_a, rows_b = data_rows(args.a), data_rows(args.b)
    except OSError as exc:
        parser.error(str(exc))
    try:
        worst, where = compare(rows_a, rows_b)
    except ValueError as exc:
        print(f"data sections differ: {exc}")
        return 1
    print(f"largest difference {worst:.3e} ({where})")
    return 0 if worst <= args.rtol else 1


if __name__ == "__main__":
    sys.exit(main())
