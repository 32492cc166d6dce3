"""Compare two `nonresidue reproduce-paper --format csv` outputs row by row.

    python3 tools/rowdiff.py OLD.csv NEW.csv

Rows are keyed by (formula_id, q, target); the files are read with the
csv module, since some targets contain commas.  The report lists the
keys found in only one file, the keys that repeat within one file, and,
for each (formula_id, column), how many cells moved and the largest
relative change among the numeric ones.  A repeated key pairs its n-th
row in OLD with its n-th row in NEW.

Exit status: 0 when both files have the same rows (the same keys, each
as often), whatever their cells; 1 otherwise; 2 on a usage error.
"""

from __future__ import annotations

import csv
import math
import sys
from collections import Counter, defaultdict

KEY = ("formula_id", "q", "target")


def read_rows(path: str) -> tuple[list[str], dict[tuple, list[dict]]]:
    """The header and, per key, that key's rows in file order."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        rows = defaultdict(list)
        for row in reader:
            rows[tuple(row[k] for k in KEY)].append(row)
        return reader.fieldnames or [], rows


def relative_change(old: str, new: str) -> float | None:
    """|new - old| / |old| for numeric cells (inf from 0), None otherwise."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a != 0 else math.inf


def _show(key: tuple) -> str:
    return ",".join(key)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/rowdiff.py OLD.csv NEW.csv", file=sys.stderr)
        return 2
    (old_path, new_path), ((old_cols, old), (new_cols, new)) = argv, [read_rows(p) for p in argv]
    for path, rows, other in ((old_path, old, new), (new_path, new, old)):
        for key in sorted(rows.keys() - other.keys()):
            print(f"only in {path}: {_show(key)}")
    for path, rows in ((old_path, old), (new_path, new)):
        for key, group in rows.items():
            if len(group) > 1:
                print(f"repeated in {path} ({len(group)}x): {_show(key)}")
    moved: Counter = Counter()
    largest: dict[tuple, float] = {}
    columns = [c for c in new_cols if c in old_cols and c not in KEY]
    for key in old.keys() & new.keys():
        for before, after in zip(old[key], new[key]):
            for col in columns:
                if before[col] != after[col]:
                    slot = (key[0], col)
                    moved[slot] += 1
                    rel = relative_change(before[col], after[col])
                    if rel is not None:
                        largest[slot] = max(largest.get(slot, 0.0), rel)
    for slot in sorted(moved):
        rel = f"{largest[slot]:.3g}" if slot in largest else "-"
        print(f"moved {slot[0]} {slot[1]}: {moved[slot]} cells, largest relative change {rel}")
    if not moved:
        print("no cell moved")
    same = {k: len(g) for k, g in old.items()} == {k: len(g) for k, g in new.items()}
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
