"""Compare two output trees file by file, down to the numbers.

    python3 tools/compare_outputs.py DIR_A DIR_B

DIR_A and DIR_B are two ``--work`` directories of
``tools/digest_outputs.py``: one directory per run, holding that run's
output files.  The files ``<run>/<file>`` of the two trees are paired by
that relative path; ``resolved_config.json`` is left out, since it records
the output directory, and so are the configs beside the run directories,
which are inputs.  Prints one line per file, in path order:

- ``same <file>`` when the bytes match;
- ``numbers <largest relative difference> <file>:<row>/<key>`` when a CSV
  or JSON file keeps its structure (the same rows, columns, keys and
  non-numeric values) and only its numbers differ; the location is that of
  the largest difference, a CSV's data row (from 1) and column name, or a
  JSON value's path of keys and list indices;
- ``differs <file>`` or ``missing <file>`` (a file that one tree lacks)
  otherwise.

The relative difference of two numbers is |a - b| / max(|a|, |b|), 0 when
they are equal (two NaNs included).  The last line, ``largest <value>``, is
the largest relative difference over all files.  Exits 1 on any ``differs``
or ``missing`` line, else 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

SKIPPED = {"resolved_config.json"}


class _Differs(Exception):
    """The two files differ in more than their numbers."""


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        raise _Differs
    return abs(a - b) / max(abs(a), abs(b))


def _csv_diffs(a: bytes, b: bytes):
    """(relative difference, row/key) of every cell of two CSV files."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(x.decode()))) for x in (a, b))
    if len(rows_a) != len(rows_b) or not rows_a or rows_a[0] != rows_b[0]:
        raise _Differs
    header = rows_a[0]
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(ra) != len(rb) or len(ra) != len(header):
            raise _Differs
        for key, x, y in zip(header, ra, rb):
            if x != y:
                u, v = _number(x), _number(y)
                if u is None or v is None:
                    raise _Differs
                yield _relative(u, v), f"{i}/{key}"


def _json_diffs(a, b, path=()):
    """(relative difference, key path) of every number of two JSON values."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise _Differs
        for key in a:
            yield from _json_diffs(a[key], b[key], (*path, str(key)))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise _Differs
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_diffs(x, y, (*path, str(i)))
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        yield _relative(float(a), float(b)), "/".join(path)
    elif a != b or type(a) is not type(b):
        raise _Differs


def compare(path: str, a: bytes, b: bytes):
    """(status, largest relative difference, location) of one file pair."""
    if a == b:
        return "same", 0.0, path
    try:
        if path.endswith(".csv"):
            diffs = list(_csv_diffs(a, b))
        elif path.endswith(".json"):
            diffs = list(_json_diffs(json.loads(a), json.loads(b)))
        else:
            raise _Differs
    except (_Differs, ValueError):        # a JSON or decode error is a ValueError
        return "differs", 0.0, path
    rel, where = max(diffs, default=(0.0, ""), key=lambda d: d[0])
    return "numbers", rel, f"{path}:{where}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    roots = [Path(d) for d in argv]
    files = [{p.relative_to(root).as_posix(): p for p in root.glob("*/*")
              if p.is_file() and p.name not in SKIPPED} for root in roots]
    largest, failed = 0.0, False
    for path in sorted(files[0].keys() | files[1].keys()):
        if path not in files[0] or path not in files[1]:
            print(f"missing {path}")
            failed = True
            continue
        status, rel, where = compare(path, *(f[path].read_bytes() for f in files))
        failed |= status == "differs"
        largest = max(largest, rel)
        print(f"numbers {rel:.3g} {where}" if status == "numbers" else f"{status} {where}")
    print(f"largest {largest:.3g}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
