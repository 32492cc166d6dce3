"""Output check against the stored reference of the default seed.

The reference keeps two values per item, in item order:

* a hash of the columns that must match exactly (formula, q, target,
  applicable, verdict, and the integer columns the workload names), and
* a weighted sum F = sum_j w_j v_j of the remaining numeric cells, in row
  order, with fixed weights w_j in [1, 2).

The item matches when the hash is equal and |F - F_ref| <= rtol * S + 1e-12,
where S = sum_j w_j |v_j| >= |F|.  Every cell within rtol of its reference
value passes; a single cell off by more than rtol * S / w_j fails, as does
a swap of two cells.  F_ref is stored to 11 significant digits, a rounding
far inside every tolerance used (1e-9 and looser).  Two values per item
instead of every cell keep the reference small: the residuals workload
alone writes 200,040 rows.

Rows for any other seed are checked only for their expected verdict.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import math
from pathlib import Path

from nonresidue import cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ABS_TOL = 1e-12
_GOLDEN = 0.6180339887498949


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.ref.gz"


def load_reference(workload: str) -> list[tuple[str, float]]:
    """(exact-column hash, weighted sum) of each item of the default seed."""
    with gzip.open(reference_path(workload), "rt", encoding="ascii") as fh:
        return [(digest, float(total)) for digest, total in (line.split() for line in fh)]


def parse_rows(text: str) -> list[list[str]]:
    """CSV text written by cli.emit_reports -> its data rows, in CSV_FIELDS order."""
    lines = text.splitlines()
    if lines[0].split(",") != list(cli.CSV_FIELDS):
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    return list(csv.reader(lines[1:]))


_COLUMN = {name: i for i, name in enumerate(cli.CSV_FIELDS)}
_APPLICABLE, _VERDICT = _COLUMN["applicable"], _COLUMN["verdict"]


def fingerprint(rows: list[list[str]], exact: tuple[str, ...]) -> tuple[str, float, float]:
    """(hash of exact columns, weighted sum F, weighted scale S)."""
    exact_at = [_COLUMN[c] for c in exact]
    numeric_at = [i for c, i in _COLUMN.items() if c not in exact]
    h = hashlib.sha1()
    total = 0.0
    scale = 0.0
    j = 0
    for row in rows:
        cells = [row[i] for i in exact_at]
        for i in numeric_at:
            cell = row[i]
            if cell == "":
                cells.append("-")
                continue
            j += 1
            w = 1.0 + (j * _GOLDEN) % 1.0
            v = float(cell)
            total += w * v
            scale += w * abs(v)
        h.update("\x1f".join(cells).encode() + b"\x1e")
    return h.hexdigest()[:6], total, scale


def expected_verdict_problem(rows: list[list[str]]) -> str | None:
    """Every row must pass when applicable and be not-applicable otherwise."""
    if not rows:
        return "item produced no rows"
    for row in rows:
        want = "pass" if row[_APPLICABLE] == "true" else "not-applicable"
        if row[_VERDICT] != want:
            return f"{row[0]} q={row[1]} {row[2]}: verdict {row[_VERDICT]}"
    return None


def reference_problem(
    label: str, rows: list[list[str]], ref: tuple[str, float], exact: tuple[str, ...], rtol: float
) -> str | None:
    digest, total, scale = fingerprint(rows, exact)
    if digest != ref[0]:
        return f"{label}: exact columns differ from the reference"
    if not abs(total - ref[1]) <= rtol * scale + ABS_TOL:
        return f"{label}: values differ from the reference beyond rtol {rtol:g}"
    return None


def write_reference(workload: str, fingerprints: list[tuple[str, float]]) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the file byte-identical across regenerations.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        for digest, total in fingerprints:
            if not math.isfinite(total):
                raise ValueError("non-finite reference value")
            gz.write(f"{digest} {total:.11g}\n".encode("ascii"))
    return path
