#!/usr/bin/env python3
"""Compare two plap-lab output trees value by value.

JSON files are compared as parsed values, ignoring the top-level `timestamp`;
CSV files column by column, matched by header name, so a dropped or added
column is reported once; every other file byte for byte.  Each differing
value is printed with its relative change, and a file with differing values
ends with one line that counts them and gives the largest relative change
among the numeric ones.  When any numeric value moved, the output ends with
one line per output kind (`report_*.json`, `sweep.csv`, `deficit_vs_h.csv`,
`boundary_profile_*.csv`, `slice_*.csv`, and any other file name as its own
kind) that gives the kind's largest relative move and the file it came from.
Exit code 0 means the trees are identical, 1 that something differs.

    python scripts/compare_outputs.py OLD_DIR NEW_DIR
"""

import argparse
import csv
import json
import math
import sys
from fnmatch import fnmatch
from pathlib import Path

# output kinds of the summary, by file name; any other name is its own kind
KINDS = ("report_*.json", "sweep.csv", "deficit_vs_h.csv", "boundary_profile_*.csv", "slice_*.csv")


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def _rel_change(a, b) -> float | None:
    """(b - a) / |a| if both are numbers (inf from 0 to nonzero), else None."""
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if x == 0.0:
        return math.inf if y != 0.0 else 0.0
    return (y - x) / abs(x)


def _value_line(line: str, a, b, out: list, rels: list) -> None:
    """Record one differing value: its line, with its relative change."""
    rel = _rel_change(a, b)
    rels.append(rel)
    shown = "n/a" if rel is None else "inf" if rel == math.inf else f"{rel:+.3e}"
    out.append(f"{line} (rel {shown})")


def _diff_json(a, b, where: str, out: list, rels: list) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            if key not in a or key not in b:
                side = "new" if key not in a else "old"
                out.append(f"{where}.{key}: only in {side}")
            else:
                _diff_json(a[key], b[key], f"{where}.{key}", out, rels)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{where}: length {len(a)} -> {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _diff_json(x, y, f"{where}[{i}]", out, rels)
    elif not _same(a, b):
        _value_line(f"{where}: {a!r} -> {b!r}", a, b, out, rels)


def _load_json(path: Path):
    obj = json.loads(path.read_text())
    if isinstance(obj, dict):
        obj.pop("timestamp", None)
    return obj


def _load_csv(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _diff_csv(a: list, b: list, out: list, rels: list) -> None:
    head_a, head_b = (a[0] if a else []), (b[0] if b else [])
    for head, other, side in ((head_a, head_b, "old"), (head_b, head_a, "new")):
        for col in head:
            if col not in other:
                out.append(f"column {col}: only in {side}")
    if len(a) != len(b):
        out.append(f"rows {len(a)} -> {len(b)}")
    shared = [col for col in head_a if col in head_b]
    for r, (ra, rb) in enumerate(zip(a[1:], b[1:]), start=1):
        if len(ra) != len(head_a) or len(rb) != len(head_b):
            out.append(f"row {r}: {len(ra)} -> {len(rb)} cells")
        cells_a, cells_b = dict(zip(head_a, ra)), dict(zip(head_b, rb))
        for col in shared:
            x, y = cells_a.get(col, ""), cells_b.get(col, "")
            if x != y:
                _value_line(f"row {r} {col}: {x} -> {y}", x, y, out, rels)


def _size(move: float) -> float:
    """The sort key of an absolute relative move: a value that turned NaN
    is the largest change."""
    return math.inf if math.isnan(move) else move


def compare_file(old: Path, new: Path) -> tuple[list, float | None]:
    """Differences between two files, as printable lines (empty if
    identical), and the largest absolute relative move of a numeric value
    (None if none moved); differing values add a last line that sums them
    up."""
    out: list = []
    rels: list = []
    if old.suffix == ".json":
        _diff_json(_load_json(old), _load_json(new), "$", out, rels)
    elif old.suffix == ".csv":
        _diff_csv(_load_csv(old), _load_csv(new), out, rels)
    elif old.read_bytes() != new.read_bytes():
        out.append("bytes differ")
    moves = [abs(r) for r in rels if r is not None]
    largest = max(moves, key=_size) if moves else None
    if rels:
        shown = "n/a" if largest is None else f"{largest:.3e}"
        out.append(f"{len(rels)} values changed, largest relative change {shown}")
    return out, largest


def compare_trees(old: Path, new: Path) -> int:
    """Print every difference between the trees; return the number of differing files."""
    files_old = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    files_new = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    differing = 0
    by_kind: dict = {}      # kind -> (largest move, file)
    for rel in sorted(files_old | files_new):
        if rel not in files_new or rel not in files_old:
            side = "old" if rel not in files_new else "new"
            print(f"{rel}: only in {side}")
            differing += 1
            continue
        lines, largest = compare_file(old / rel, new / rel)
        if lines:
            differing += 1
            for line in lines:
                print(f"{rel}: {line}")
        if largest is not None:
            kind = next((k for k in KINDS if fnmatch(rel.name, k)), rel.name)
            if kind not in by_kind or _size(largest) > _size(by_kind[kind][0]):
                by_kind[kind] = largest, rel
    n = len(files_old | files_new)
    print(f"{n - differing} of {n} files identical")
    for kind in [k for k in KINDS if k in by_kind] + sorted(set(by_kind) - set(KINDS)):
        largest, rel = by_kind[kind]
        print(f"{kind}: largest relative move {largest:.3e}, in {rel}")
    return differing


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args()
    for d in (args.old, args.new):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    return 1 if compare_trees(args.old, args.new) else 0


if __name__ == "__main__":
    sys.exit(main())
