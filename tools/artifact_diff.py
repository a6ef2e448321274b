"""Compare two artifact trees, such as two ``.footprint_out/`` directories.

Usage: ``python3 tools/artifact_diff.py OLD NEW``.

Prints one line per file found under either tree, by relative path:

- ``identical`` when the bytes agree;
- ``only in OLD`` or ``only in NEW``;
- otherwise the largest absolute difference between numbers at the same
  place and that place, followed by the places that changed otherwise
  or exist on one side only.

A JSON file is compared by JSON path, and a path missing on one side is
reported once, at its top.  A list of Fourier coefficients (objects with
a ``"k"`` entry) is keyed by its frequencies, so a coefficient that
appears or vanishes is reported as such instead of shifting the ones
after it.  Any other file is compared line by line.  Two strings or
lines that agree apart from their numbers have those numbers compared;
otherwise the place is reported as changed.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class Differences:
    """The largest numeric difference found, where it is, and every other difference."""

    def __init__(self):
        self.worst, self.where, self.other = 0.0, None, []

    def number(self, old, new, path):
        if abs(new - old) > self.worst:
            self.worst, self.where = abs(new - old), path

    def __str__(self):
        head = f"max |diff| {self.worst:.3e}" + (f" at {self.where}" if self.where else "")
        return "; ".join([head] + self.other)


def _children(doc):
    """The named children of a JSON object or list, or None for any other value."""
    if isinstance(doc, dict):
        return doc
    if isinstance(doc, list) and doc and all(isinstance(e, dict) and "k" in e for e in doc):
        return {f"k={tuple(e['k'])}": {n: v for n, v in e.items() if n != "k"} for e in doc}
    if isinstance(doc, list):
        return dict(enumerate(doc))
    return None


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _compare_text(old, new, path, found):
    """Numbers of two texts that agree apart from them, else one changed ``path``."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        found.other.append(f"{path} changed")
        return
    for u, v in zip(NUMBER.findall(old), NUMBER.findall(new)):
        found.number(float(u), float(v), path)


def _compare_json(old, new, path, found):
    a, b = _children(old), _children(new)
    if a is not None and b is not None:
        for key in sorted(set(a) | set(b)):
            where = f"{path}[{key}]"
            if key in a and key in b:
                _compare_json(a[key], b[key], where, found)
            else:
                found.other.append(f"{where} only in {'OLD' if key in a else 'NEW'}")
    elif _is_number(old) and _is_number(new):
        found.number(float(old), float(new), path)
    elif isinstance(old, str) and isinstance(new, str):
        _compare_text(old, new, path, found)
    elif old != new:
        found.other.append(f"{path} changed")


def compare_files(old, new):
    """One line describing how the file ``new`` differs from ``old``."""
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return "identical"
    found = Differences()
    try:
        _compare_json(json.loads(a), json.loads(b), "", found)
    except ValueError:
        lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
        for n, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
            _compare_text(x, y, f"line {n}", found)
        side = "OLD" if len(lines_a) > len(lines_b) else "NEW"
        for n in range(min(len(lines_a), len(lines_b)) + 1, max(len(lines_a), len(lines_b)) + 1):
            found.other.append(f"line {n} only in {side}")
    return str(found)


def compare_trees(old, new):
    """``(relative path, description)`` for every file under ``old`` or ``new``."""
    files = {p.relative_to(root).as_posix() for root in (old, new)
             for p in root.rglob("*") if p.is_file()}
    rows = []
    for rel in sorted(files):
        a, b = old / rel, new / rel
        if not a.is_file() or not b.is_file():
            rows.append((rel, f"only in {'NEW' if b.is_file() else 'OLD'}"))
        else:
            rows.append((rel, compare_files(a, b)))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for rel, description in compare_trees(Path(argv[0]), Path(argv[1])):
        print(f"{rel}: {description}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
