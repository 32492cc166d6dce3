"""Acceptance gate: one test per shipped criterion.

Criteria 01-11 each run their entry of the reproduce-paper checklist
(`nonresidue.cli.CHECKS`) at the default scale and require every row to
pass; the ranges, grids and tolerances live in that entry.  A test adds
only what its rows cannot express, and its time gate.  Each test prints
a single summary line so a verbose run doubles as the verification
checklist.
"""

import functools
import hashlib
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy

from nonresidue.cli import CHECKS, FEJER_ALPHAS, THM13_CHOICES
from nonresidue.kernels import (
    fejer_kernel,
    gamma_kernel,
    mellin_numeric_check,
    optimize_lambda,
    prop62_constant,
    weighted_integral,
)


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _announce(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


@functools.cache
def _passing_rows(check_id: str):
    """(rows, seconds) of one checklist entry at the default scale, once
    every row is known to pass."""
    (check,) = [c for c in CHECKS if c.id == check_id]
    t0 = time.perf_counter()
    rows = check.run("default", 1)
    elapsed = time.perf_counter() - t0
    failed = [r for r in rows if r.verdict != "pass"]
    assert rows and not failed, failed[:5]
    return rows, elapsed


def _q_span(rows, name: str = "q") -> str:
    return f"{min(r.q for r in rows)} <= {name} <= {max(r.q for r in rows)}"


def test_criterion_01_qnr_below_log_squared():
    rows, elapsed = _passing_rows("cor12")
    assert elapsed < 5.0
    _announce(1, f"least non-residue < (log q)^2 for {len(rows)} primes, {_q_span(rows)} ({elapsed:.2f}s)")


def test_criterion_02_progression_bound_desk_slice():
    rows, elapsed = _passing_rows("cor15")
    worst = min(r.margin for r in rows)
    _announce(2, f"P(a,q) <= (phi log q)^2 for all reduced a, {_q_span(rows)}; min margin {worst:.1f} ({elapsed:.1f}s)")


def test_criterion_03_gamma_line_constant():
    rows, elapsed = _passing_rows("thm13")
    assert elapsed < 5.0
    (l1,) = [r.bound for r in rows if r.target == "gamma:l1>=0.291"]
    _announce(3, f"reflected-Gamma line constant {l1:.9f} within its window ({elapsed:.2f}s)")


def test_criterion_04_headline_constants_and_optimality():
    _passing_rows("thm13")
    g = gamma_kernel()
    results = []
    for lam, h, ref in THM13_CHOICES:
        c = prop62_constant(g, lam, h)
        lam_star, c_star = optimize_lambda(g, h)
        assert c_star >= c - 0.005, (h, c_star, c)
        results.append(f"h={h}: c={c:.4f} (ref {ref}), c*={c_star:.4f} at {lam_star:.2f}")
    _announce(4, "; ".join(results))


def test_criterion_05_fejer_closed_forms():
    _passing_rows("sec62")
    for alpha in FEJER_ALPHAS:
        kern = fejer_kernel(alpha)
        for u in np.geomspace(0.2, math.exp(2 * alpha), 7):
            assert mellin_numeric_check(kern, float(u)) == pytest.approx(
                kern.mellin(float(u)), abs=1e-6
            )
    _announce(5, "squared-sine closed forms: l1 = 2a, W(1), Mellin checklist grid and a 7-point grid (1e-6)")


def test_criterion_06_mellin_inversion():
    rows, _ = _passing_rows("sec61-inversion")
    wg = weighted_integral(gamma_kernel(), math.inf)
    assert wg == pytest.approx(math.sqrt(math.pi), abs=1e-6)
    _announce(6, f"int Ktilde du/sqrt(u) = K(1/2) for {len(rows)} kernels; gamma gives sqrt(pi) = {wg:.8f}")


def test_criterion_07_class_number_oracle_equivalence():
    rows, elapsed = _passing_rows("eq13")
    # both class numbers are exact integers, so every margin is exactly 0
    assert all(r.margin == 0.0 for r in rows), [r for r in rows if r.margin != 0.0][:5]
    assert elapsed < 120.0
    _announce(7, f"{len(rows)} fundamental q, {_q_span(rows)}: form count == finite class formula ({elapsed:.1f}s)")


def test_criterion_08_class_number_headline():
    ((row,), _) = _passing_rows("cor16")
    _announce(8, f"class-number lower bound at 1e11 is {row.bound:.2f}: {row.target}")


def test_criterion_09_residual_suite():
    rows, elapsed = _passing_rows("sec2")
    re_b_rows = [r for r in rows if r.formula == "lemma2.3"]
    assert all(r.measured > 0 for r in re_b_rows), min(re_b_rows, key=lambda r: r.measured)
    assert elapsed < 300.0
    chars = {r.target.split(":", 1)[1] for r in re_b_rows}
    worst = max(r.measured for r in rows if r.formula != "lemma2.3")
    _announce(9, f"|theta| <= 1 and Re B > 0 across {len(chars)} primitive characters and the untwisted grid; worst {worst:.3f} ({elapsed:.1f}s)")


def test_criterion_10_coprime_excess_exhaustive():
    rows, _ = _passing_rows("lemma31")
    # rows pass within 1e-12 of the bound relative to its size; hold them to 1e-12 absolute
    assert all(r.margin >= -1e-12 for r in rows), min(rows, key=lambda r: r.margin)
    assert sorted({r.target.split(":")[1] for r in rows}) == ["harmonic", "log-weighted"]
    _announce(10, f"both coprime-excess inequalities hold, {_q_span(rows, 'm')} ({len(rows) // 2} (m, x) pairs)")


def test_criterion_11_method_floor():
    rows, _ = _passing_rows("sec61-floor")
    assert len(rows) > 50
    _announce(11, f"c >= ((h-1)/(2h-1))^2 at all {len(rows)} feasible grid points")


def test_no_quick_row_is_decided_within_its_slack():
    # A row whose margin lies within its slack passed (or failed) on the
    # slack alone; none should, until such rows are re-decided at high
    # precision.  eq13's margin of 0.0 (an exact class number) has no slack.
    rows = [r for check in CHECKS for r in check.run("quick", 1)]
    slacked = [r for r in rows if r.slack > 0]
    assert {r.formula for r in slacked} == {"lemma2.3", "lemma3.1"}
    borderline = [r for r in slacked if abs(r.margin) <= r.slack]
    assert not borderline, borderline[:5]


# sha256 of the `reproduce-paper --format csv` bytes at each scale.  Their
# float cells come from numpy and scipy, so another version of either may
# move them.
_CSV_SHA256 = {
    "--quick": "349db420392d209090b6ff4bf84e191dd7eed8688a6e348bbbb5d2b7e0aee016",
    "default": "ec01f35ea75f64ffe9906bc49bdd7982134d3c66d5d33e35285b16d287139cfd",
    "--full": "aa9cdecc25387e01e9a505e1bf84af0177a5738633c1d586ade4ac195d59ecab",
}


def _assert_pinned_bytes(data: bytes, scale: str) -> None:
    got = hashlib.sha256(data).hexdigest()
    assert got == _CSV_SHA256[scale], (
        f"reproduce-paper {scale} --format csv hashes to {got}, not {_CSV_SHA256[scale]}, "
        f"under numpy {np.__version__} and scipy {scipy.__version__}.  A change that moves "
        "these bytes on purpose lists the moved cells in CHANGES.md and updates this hash."
    )


@pytest.mark.slow
@pytest.mark.parametrize("scale", ["default", "--full"])
def test_reproduce_paper_bytes_are_pinned(scale, tmp_path):
    # in a child process: the suite's own memory would otherwise grow by the
    # run's rows and show in the peak RSS of the children other tests measure
    path = tmp_path / "out.csv"
    flags = [] if scale == "default" else [scale]
    argv = [sys.executable, "-m", "nonresidue", "reproduce-paper", *flags, "--format", "csv", "--out", str(path)]
    assert subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(SRC))).returncode == 0
    _assert_pinned_bytes(path.read_bytes(), scale)


def test_criterion_12_reproduce_paper_determinism(tmp_path):
    from nonresidue.cli import main

    t0 = time.time()
    paths = []
    for name, workers in (("r1.csv", 1), ("r2.csv", 1), ("r8.csv", 8)):
        path = tmp_path / name
        code = main(
            [
                "reproduce-paper",
                "--quick",
                "--format",
                "csv",
                "--workers",
                str(workers),
                "--out",
                str(path),
            ]
        )
        assert code == 0
        paths.append(path)
    b1, b2, b8 = (p.read_bytes() for p in paths)
    assert b1 == b2, "re-run changed bytes"
    assert b1 == b8, "worker count changed bytes"
    _assert_pinned_bytes(b1, "--quick")
    elapsed = time.time() - t0
    _announce(12, f"reproduce-paper byte-identical across reruns and workers 1 vs 8 ({elapsed:.1f}s, {len(b1)} bytes)")
