"""Command line frontend.

Subcommands: scan | eval | kernel | lemma | lvalue | classnum |
reproduce-paper.  Reports go to stdout (or --out) as CSV, JSON lines, or
a human table; progress and checklists go to stderr.  Exit status: 0 all
pass or not-applicable, 2 at least one fail, 3 not-found without fails,
1 usage error.  Options follow the variant (`scan qnr --q 7`), and each
variant takes only the flags it reads.  Output is byte-deterministic for
a fixed configuration:
rows are sorted by (formula, q, target) and floats use shortest round-trip
formatting, so the worker count never changes the bytes.

`reproduce-paper` runs the checklist `CHECKS`.  Its twisted sec2 rows and
those of `lemma 2.2|2.3|2.5` come from one per-modulus builder, `sec2_rows`.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal, InvalidOperation
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from . import bounds, explicit_formula as ef, kernels
from .bounds import BoundReport
from .characters import character_group, character_of_index, primitive_characters
from .lfunctions import (
    FINITE_METHOD,
    HURWITZ_METHOD,
    SERIES_METHOD,
    l_at_1,
    re_b,
)

CSV_FIELDS = ("formula_id", "q", "target", "measured", "bound", "margin", "applicable", "verdict")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_NOT_FOUND = 3


def _fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_reports(reports: Sequence[BoundReport], fmt: str, stream) -> None:
    # A row's cells are its first eight fields, in CSV_FIELDS order; its
    # slack is never written.
    if fmt == "csv":
        # The csv module writes None as "", a float by its float repr and
        # an int by str; only the bool needs spelling out.
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerows(
            (formula, q, target, measured, bound, margin, "true" if applicable else "false", verdict)
            for formula, q, target, measured, bound, margin, applicable, verdict, _ in reports
        )
    elif fmt == "json":
        for r in reports:
            stream.write(json.dumps(dict(zip(CSV_FIELDS, r))) + "\n")
    elif fmt == "human":
        widths = (10, 12, 28, 22, 22, 14, 6, 14)
        header = ("formula", "q", "target", "measured", "bound", "margin", "appl", "verdict")
        stream.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
        for formula, q, target, measured, bound, margin, applicable, verdict, _ in reports:
            cells = (
                formula,
                str(q),
                target[:28],
                _fmt_value(measured)[:22],
                _fmt_value(bound)[:22],
                _fmt_value(None if margin is None else round(margin, 6))[:14],
                "yes" if applicable else "no",
                verdict,
            )
            stream.write("  ".join(c.ljust(w) for c, w in zip(cells, widths)) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def exit_code(reports: Iterable[BoundReport]) -> int:
    saw_missing = False
    for r in reports:
        if r.verdict == "fail":
            return EXIT_FAIL
        if r.verdict == "not-found":
            saw_missing = True
    return EXIT_NOT_FOUND if saw_missing else EXIT_OK


def _sorted_reports(reports: Iterable[BoundReport]) -> list[BoundReport]:
    return sorted(reports, key=lambda r: (r.formula, r.q, r.target))


# ----------------------------------------------------------------------
# Parallel scan driver
# ----------------------------------------------------------------------


def _scan_task(formula: str, kwargs: dict, qs: Sequence[int]) -> list[BoundReport]:
    return list(bounds.verify_stream(formula, qs, **kwargs))


def run_scan(formula: str, qs: Sequence[int], workers: int = 1, **kwargs) -> list[BoundReport]:
    # the pool starts every worker at once: no more than CPUs or moduli
    workers = min(workers, os.cpu_count() or 1, len(qs))
    if workers <= 1 or len(qs) < 4:
        return _sorted_reports(bounds.verify_stream(formula, qs, **kwargs))
    # contiguous slices, about eight per worker; a slice of a range is a range
    step = max(1, len(qs) // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(partial(_scan_task, formula, kwargs), [qs[i : i + step] for i in range(0, len(qs), step)])
        return _sorted_reports(r for part in parts for r in part)


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


# Integer flags accept at most this many digits; q itself is bounded far
# lower by is_prime/factorize (2**63), so this only keeps int() cheap.
_MAX_INT_DIGITS = 40


def _exact_int(text: str) -> int:
    """An integer flag, parsed exactly; `1e5` is accepted, `1.5` is not."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not value.is_finite() or value.adjusted() >= _MAX_INT_DIGITS:
        raise argparse.ArgumentTypeError(f"not an integer below 1e{_MAX_INT_DIGITS}: {text!r}")
    if value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(value)


def _modulus(text: str) -> int:
    """A modulus flag: an exact integer below 2**63, the range of is_prime/factorize."""
    n = _exact_int(text)
    if n >= 2**63:
        raise argparse.ArgumentTypeError(f"{text!r} is not below 2^63, the range of is_prime and factorize")
    return n


def _one_q(text: str) -> range:
    """`classnum --q`: a single q, as the range a scan reads."""
    q = _modulus(text)
    return range(q, q + 1)


def _classnum_qmax(text: str) -> range:
    """`classnum --qmax N`: the range 5..N."""
    return range(5, _modulus(text) + 1)


def _q_spec(text: str) -> range:
    """`--q` of a scan: a single q, or an inclusive range a..b."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(_modulus(lo), _modulus(hi) + 1)
    return _one_q(text)


def _index_h(text: str) -> int | float:
    """`--h`: an integer index, or inf (also oo)."""
    return math.inf if text in ("inf", "oo") else _exact_int(text)


def _real(text: str) -> float:
    """A float flag; inf may also be written oo."""
    try:
        return math.inf if text == "oo" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _int_at_least(low: int) -> Callable[[str], int]:
    """An integer flag that must be >= low."""

    def parse(text: str) -> int:
        n = _exact_int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"not an integer >= {low}: {text!r}")
        return n

    return parse


def _alpha(text: str) -> float:
    """`--alpha`, `--mellin`, `--tolerance`: a finite number > 0."""
    alpha = _real(text)
    if not 0 < alpha < math.inf:
        raise argparse.ArgumentTypeError(f"not a finite number > 0: {text!r}")
    return alpha


def _lambda(text: str) -> float:
    """`--lam`, `--weighted`: a number > 0, or inf (also oo)."""
    lam = _real(text)
    if not lam > 0:
        raise argparse.ArgumentTypeError(f"not a number > 0 or inf: {text!r}")
    return lam


def _xs(text: str) -> list[float]:
    """`--x`: comma separated numbers."""
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma separated list of numbers: {text!r}") from None


def _parse_qrange(args) -> range:
    """`--q` (a range already), or `--qmin` with `--qmax`; never both."""
    qmin, qmax = vars(args).get("qmin"), vars(args).get("qmax")
    if args.q is not None and qmin is None and qmax is None:
        qs = args.q
    elif args.q is None and qmin is not None and qmax is not None:
        qs = range(qmin, qmax + 1)
    else:
        _progress("error: pass one of --q Q, --q A..B, or --qmin A --qmax B")
        raise SystemExit(EXIT_USAGE)
    if not qs:
        _progress("error: empty q range")
        raise SystemExit(EXIT_USAGE)
    return qs


# scan variant -> (formula, the flags it reads besides --q/--qmin/--qmax/--workers)
_SCANS = {
    "qnr": ("cor12", ""),
    "subgroup": ("thm11", "subgroup ceiling"),
    "subgroup-clean": ("thm12", "subgroup ceiling"),
    "ap": ("cor15", "per-class ceiling"),
    "coset": ("thm14", "subgroup ceiling"),
    "classnum": ("eq13", ""),
    "elementary": ("sec43", ""),
}

# What a q must be for the scans that skip every other q.
_SCAN_APPLIES_TO = {
    "qnr": "prime q >= 5",
    "classnum": "q > 4 with -q a fundamental discriminant",
}


def cmd_scan(args) -> int:
    """`scan VARIANT`, and `classnum` as the classnum scan."""
    formula = _SCANS[args.what][0]
    qs = _parse_qrange(args)
    kwargs = {k: v for k, v in vars(args).items() if k in ("subgroup", "per_class", "ceiling") and v is not None}
    reports = run_scan(formula, qs, workers=args.workers, **kwargs)
    if not reports:
        needs = _SCAN_APPLIES_TO.get(args.what, "applicable q")
        _progress(f"error: the {args.what} scan checks only {needs}; there is none in {qs.start}..{qs.stop - 1}")
        return EXIT_USAGE
    _write_output(args, reports)
    return exit_code(reports)


def cmd_eval(args) -> int:
    name = args.what
    q, h = getattr(args, "q", None), getattr(args, "h", None)  # each variant declares what it reads
    rows: list[BoundReport] = []
    if name == "thm14" and math.isinf(h):
        _progress("error: thm14 needs a finite --h")
        return EXIT_USAGE
    if name == "thm14" and h < 2:
        _progress("error: index h must be at least 2")
        return EXIT_USAGE
    # targets carry the instantiated formula so single-shot output is
    # self-describing
    if name == "thm11":
        vals = bounds.subgroup_bound_quantities(q)
        rows.append(BoundReport.value("thm11", q, f"(log q + B)^2 with A={vals.a_term!r};B={vals.b_term!r}", vals.bound, q >= bounds.SUBGROUP_THRESHOLD))
    elif name == "thm12":
        applicable = bounds.subgroup_bound_clean_applicable(q)  # q >= 3, as the scan asks
        rows.append(BoundReport.value("thm12", q, "(log q)^2 when no prime below it divides q", math.log(q) ** 2, applicable))
    elif name == "thm14":
        rows.append(BoundReport.value("thm14", q, f"((h-1)log q + 3(h+1) + 2.5(loglog q)^2)^2 at h={h}", bounds.coset_bound(q, h), q >= bounds.COSET_THRESHOLD))
    elif name == "cor15":
        rows.append(BoundReport.value("cor15", q, "(phi(q) log q)^2", bounds.ap_bound(q), q >= bounds.AP_THRESHOLD))
    elif name == "thm15":
        vb, stated = bounds.l1_value_bounds(q), q >= bounds.LVALUE_THRESHOLD
        rows.append(BoundReport.value("thm15", q, "2e^g(loglog q - log2 + 1/2 + 1/loglog q)", vb.upper, stated))
        rows.append(BoundReport.value("thm15", q, "12e^g/pi^2 (... + 14 loglog q/log q) for 1/|L|", vb.reciprocal_upper, stated))
    elif name == "cor16":
        cb, stated = bounds.class_number_bounds(q), q >= bounds.LVALUE_THRESHOLD
        rows.append(BoundReport.value("cor16", q, "h-lower: pi/(12e^g) sqrt(q)/(core + 14 loglog q/log q)", cb.lower, stated))
        rows.append(BoundReport.value("cor16", q, "h-upper: 2e^g/pi sqrt(q) core", cb.upper, stated))
        rows.append(BoundReport.value("cor16", q, "h-lower-floor", float(cb.lower_floor), stated))
    elif name == "sec43":
        rows.extend(bounds.verify_elementary(q))
    elif name == "alpha":
        rows.append(BoundReport.value("alpha", 0, f"headline constant at h={h}", kernels.alpha_table(h)))
    elif name == "limit":
        rows.append(BoundReport.value("limit", 0, f"((h-1)/(2h-1))^2 at h={h}", kernels.limit_constant(h)))
    else:  # largeh
        rows.append(BoundReport.value("largeh", 0, f"(1/4)(1-1/h)^2(log 2h/(log 2h - 2))^2 at h={h}", kernels.largeh_constant(h)))
    _write_output(args, rows)
    return EXIT_OK


def cmd_kernel(args) -> int:
    # The one flag rule argparse cannot state: --h is read by --prop62 and
    # --optimize, --lam by --prop62 alone.
    if (args.h is not None and not (args.prop62 or args.optimize)) or (args.lam is not None and not args.prop62):
        _progress("error: --h needs --prop62 or --optimize, and --lam needs --prop62")
        return EXIT_USAGE
    h = 2 if args.h is None else args.h
    lam = 8.35 if args.lam is None else args.lam
    kern = kernels.gamma_kernel() if args.what == "gamma" else kernels.fejer_kernel(args.alpha)
    rows: list[BoundReport] = []
    if args.l1:
        rows.append(BoundReport.value("kernel", 0, f"{kern.name}:l1", kernels.line_l1(kern)))
    if args.k_half:
        rows.append(BoundReport.value("kernel", 0, f"{kern.name}:K(1/2)", kern.at_half))
    if args.mellin is not None:
        numeric = kernels.mellin_numeric_check(kern, args.mellin)
        closed = kern.mellin(args.mellin)
        # 1e-6: the agreement mellin_numeric_check states for its quadrature
        rows.append(BoundReport.decide("kernel", 0, f"{kern.name}:mellin({args.mellin:g})", numeric, lower=closed, upper=closed, slack=1e-6, strict=True))
    if args.weighted is not None:
        rows.append(BoundReport.value("kernel", 0, f"{kern.name}:W({args.weighted:g})", kernels.weighted_integral(kern, args.weighted)))
    if args.prop62:
        c = kernels.prop62_constant(kern, lam, h)
        rows.append(BoundReport.value("prop62", 0, f"{kern.name}:c(lam={lam:g};h={h})", c))
    if args.optimize:
        lam_star, c_star = kernels.optimize_lambda(kern, h)
        rows.append(BoundReport.value("prop62", 0, f"{kern.name}:lam*(h={h})", lam_star))
        rows.append(BoundReport.value("prop62", 0, f"{kern.name}:c*(h={h})", c_star))
    if not rows:
        _progress("error: nothing requested; pass --l1/--k-half/--mellin/--weighted/--prop62/--optimize")
        return EXIT_USAGE
    _write_output(args, rows)
    return exit_code(rows)


def _residual_report_row(rep: ef.ResidualReport) -> BoundReport:
    target = f"x={rep.x:g}" + ("" if rep.char is None else f":{rep.char}")
    return BoundReport.decide(f"lemma{rep.lemma}", rep.q, target, abs(rep.theta), upper=1.0)


def _no_primitive_character(q: int) -> int:
    _progress(f"error: no primitive character mod {q} (there is none for q = 1 or q = 2 mod 4)")
    return EXIT_USAGE


def _hadamard_row(x: float, chi, rb: float) -> BoundReport:
    """Lemma 2.3: |Re B(chi)| = rb lies in the window that x gives.  The
    margin reports the upper end only."""
    win = ef.hadamard_window(x, chi)
    return BoundReport.decide("lemma2.3", chi.q, f"x={x:g}:{chi.label}", rb, lower=win.lower, upper=win.upper, slack=ef.WINDOW_SLACK)


def sec2_rows(q: int, xs: Sequence[float], lemmas: Sequence[str] = ("2.2", "2.3", "2.5")) -> list[BoundReport]:
    """The twisted sec2 rows mod q: for each primitive character, each x,
    each of `lemmas` in the order given, with |Re B| and log |L(1, chi)|
    read once per character.  No rows when q has no primitive character."""
    if not set(lemmas) <= {"2.2", "2.3", "2.5"}:
        raise ValueError(f"not a twisted sec2 identity: {lemmas!r}")
    rows = []
    for chi in primitive_characters(q):
        rb, logl = re_b(chi), math.log(abs(l_at_1(chi).value))
        for x in xs:
            for lemma in lemmas:
                if lemma == "2.2":
                    rows.append(_residual_report_row(ef.character_log_residual(x, chi, rb)))
                elif lemma == "2.3":
                    rows.append(_hadamard_row(x, chi, rb))
                else:
                    rows.append(_residual_report_row(ef.log_l_residual(x, chi, rb, logl)))
    return rows


def cmd_lemma(args) -> int:
    which, xs = args.what, args.x
    if which in ("2.1", "2.4", "2.6"):
        rows = [_residual_report_row(ef.lemma_residual(which, x)) for x in xs]
    elif which in ("2.2", "2.3", "2.5"):
        rows = sec2_rows(args.q, xs, (which,))
        if not rows:
            return _no_primitive_character(args.q)
    elif which == "3.1":
        rows = [r for x in xs for r in ef.coprime_excess_sums(x, args.m)]
    elif which == "5.1":
        rows = [ef.negative_pattern_minimum(x, chi) for chi in character_group(args.q) for x in xs]
    else:  # trig
        rows = [ef.two_adic_trig_polynomial(x, grid=args.grid) for x in xs]
    _write_output(args, rows)
    return exit_code(rows)


def cmd_lvalue(args) -> int:
    q = args.q
    if args.index is not None and q != 1 and q % 4 != 2:  # q = 1, 2 mod 4 have none
        chi = character_of_index(q, args.index)  # the one character, not the group
        if chi is None or not chi.is_primitive:
            _progress(f"error: no primitive character with index {args.index} mod {q}")
            return EXIT_USAGE
        chars = [chi]
    else:
        chars = primitive_characters(q)
        if not chars:
            return _no_primitive_character(q)
    rows: list[BoundReport] = []
    tol = args.tolerance
    # Pop each character once its rows are built, so that its cached
    # tables (24 q bytes) go with it rather than adding up to 24 q^2.
    chars.reverse()
    while chars:
        chi = chars.pop()
        base = l_at_1(chi, HURWITZ_METHOD)
        series = l_at_1(chi, SERIES_METHOD)
        rows.append(BoundReport.value("lvalue", q, f"{chi.label}:{HURWITZ_METHOD}", abs(base.value)))
        rows.append(BoundReport.decide("lvalue", q, f"{chi.label}:agree", abs(base.value - series.value), upper=tol, strict=True))
        if chi.is_real and chi.parity == 1 and q > 4:
            # a closed form against the Hurwitz sum: 1e-10 whatever --tolerance says
            fin = l_at_1(chi, FINITE_METHOD)
            rows.append(BoundReport.decide("lvalue", q, f"{chi.label}:{FINITE_METHOD}", abs(base.value - fin.value), upper=1e-10, strict=True))
    _write_output(args, rows)
    return exit_code(rows)


# ----------------------------------------------------------------------
# reproduce-paper
# ----------------------------------------------------------------------


def _tolerance_row(formula: str, target: str, value: float, reference: float, tol: float) -> BoundReport:
    return BoundReport.decide(formula, 0, target, abs(value - reference), upper=tol)


def _qnr_rows(scale: str, workers: int) -> list[BoundReport]:
    return run_scan("cor12", range(5, 3001), workers=workers)


_AP_QMAX = {"quick": 300, "default": 2000, "full": 20000}


def _ap_rows(scale: str, workers: int) -> list[BoundReport]:
    return run_scan("cor15", range(4, _AP_QMAX[scale] + 1), workers=workers)


def _subgroup_rows(scale: str, workers: int) -> list[BoundReport]:
    qs = range(3000, 3031) if scale == "quick" else range(3000, 3101)
    return run_scan("thm11", qs, workers=workers, subgroup="squares")


_CLASSNUM_QMAX = {"quick": 800, "default": 10000, "full": 10000}


def _classnum_rows(scale: str, workers: int) -> list[BoundReport]:
    # verify_stream picks the q with -q fundamental
    return run_scan("eq13", range(5, _CLASSNUM_QMAX[scale] + 1), workers=workers)


# (lambda, h, c): the paper's kernel choices and the constants they give.
THM13_CHOICES = ((8.35, 2, 0.42), (6.55, 3, 0.49), (3.9, math.inf, 0.51))


def _gamma_constant_rows(scale: str, workers: int) -> list[BoundReport]:
    gamma = kernels.gamma_kernel()
    l1 = kernels.line_l1(gamma)
    rows = [
        # a threshold row keeps the threshold in the measured column
        BoundReport.decide("prop62", 0, "gamma:l1>=0.291", 0.291, upper=l1),
        BoundReport.decide("prop62", 0, "gamma:l1<=0.292", l1, upper=0.292),
    ]
    for lam, h, ref in THM13_CHOICES:
        c = kernels.prop62_constant(gamma, lam, h)
        rows.append(_tolerance_row("prop62", f"gamma:c(lam={lam:g};h={h})-vs-{ref}", c, ref, 0.01))
    return rows


FEJER_ALPHAS = (0.5, 1.0, 2.0, 4.0)


def _fejer_rows(scale: str, workers: int) -> list[BoundReport]:
    rows = []
    for alpha in FEJER_ALPHAS:
        kern = kernels.fejer_kernel(alpha)
        # line_l1 is the closed form 2 alpha; K(it) >= 0 makes it Ktilde(1), which the contour quadrature recomputes
        rows.append(_tolerance_row("fejer", f"l1(alpha={alpha:g})-vs-2alpha", kernels.mellin_numeric_check(kern, 1.0), kernels.line_l1(kern), 1e-8))
        closed = 4 * alpha - 4 + 4 * math.exp(-alpha)
        # W(1) by quadrature of the Mellin transform, not by the closed form `weighted_integral` uses
        w1, _ = kernels.quad(lambda u: kern.mellin(u) / math.sqrt(u), math.exp(-2 * alpha), 1.0, epsabs=1e-13, epsrel=1e-12)
        rows.append(_tolerance_row("fejer", f"W(1,alpha={alpha:g})-closed-form", w1, closed, 1e-10))
        for u in (0.5, 1.0, math.e, math.exp(2 * alpha)):
            rows.append(
                _tolerance_row("fejer", f"mellin(alpha={alpha:g};u={u:.3g})", kernels.mellin_numeric_check(kern, u), kern.mellin(u), 1e-6)
            )
    return rows


def _inversion_rows(scale: str, workers: int) -> list[BoundReport]:
    rows = []
    for kern in (kernels.gamma_kernel(), kernels.fejer_kernel(1.0), kernels.fejer_kernel(2.0)):
        w_inf = kernels.weighted_integral(kern, math.inf)
        rows.append(_tolerance_row("inversion", f"{kern.name}:W(inf)-vs-K(1/2)", w_inf, kern.at_half, 1e-6))
    return rows


def _class_floor_rows(scale: str, workers: int) -> list[BoundReport]:
    return [BoundReport.decide("cor16", 10**11, "h-lower>=9052", 9052.0, upper=bounds.class_number_bounds(1e11).lower)]


def _residual_rows(scale: str, workers: int) -> list[BoundReport]:
    quick = scale == "quick"
    untwisted_xs = [10.0, 100.0, 1e3, 1e4] if quick else [10.0, 100.0, 1e3, 1e4, 1e5, 1e6]
    twisted_qmax = 50 if quick else 300
    twisted_xs = [50.0, 100.0] if quick else [50.0, 100.0, 1e3, 1e4]
    rows = [_residual_report_row(ef.lemma_residual(lemma, x)) for x in untwisted_xs for lemma in ("2.1", "2.4", "2.6")]
    for q in range(3, twisted_qmax + 1):
        rows.extend(sec2_rows(q, twisted_xs))
    return rows


def _coprime_excess_rows(scale: str, workers: int) -> list[BoundReport]:
    m_max = 60 if scale == "quick" else 200
    m_xs = [10.0, 100.0] if scale == "quick" else [10.0, 100.0, 1000.0]
    rows = []
    for m in range(3, m_max + 1):
        for x in m_xs:
            rows.extend(ef.coprime_excess_sums(x, m))
    return rows


def _method_floor_rows(scale: str, workers: int) -> list[BoundReport]:
    rows = []
    for kern in (kernels.gamma_kernel(), kernels.fejer_kernel(1.0)):
        for lam in (0.5, 1.0, 2.0, 3.9, 6.55, 8.35, 12.0, 20.0):
            for h in (2, 3, 4, 10, 100, math.inf):
                try:
                    c = kernels.prop62_constant(kern, lam, h)
                except kernels.NonpositiveDenominatorError:
                    continue
                rows.append(BoundReport.decide("floor", 0, f"{kern.name}:lam={lam:g};h={h}", kernels.limit_constant(h), upper=c))
    return rows


class Check(NamedTuple):
    """One entry of the paper's checklist."""

    id: str
    title: str  # "{qmax}" stands for qmax[scale]
    run: Callable[[str, int], list[BoundReport]]  # (scale, workers) -> rows
    qmax: dict[str, int] | None = None


# The checklist, in run order: reproduce-paper runs it at any scale, and
# tests/test_acceptance.py runs each entry at the default scale.
CHECKS = (
    Check("cor12", "least quadratic non-residue below (log q)^2 (cor12)", _qnr_rows),
    Check("cor15", "least prime in progression below (phi log q)^2, q <= {qmax} (cor15)", _ap_rows, _AP_QMAX),
    Check("thm11", "least prime off squares below (log q + B)^2 (thm11)", _subgroup_rows),
    Check("eq13", "class number formula vs form count, q <= {qmax} (eq13)", _classnum_rows, _CLASSNUM_QMAX),
    Check("thm13", "reflected-Gamma kernel constants (thm13)", _gamma_constant_rows),
    Check("sec62", "squared-sine kernel closed forms (sec62)", _fejer_rows),
    Check("sec61-inversion", "Mellin inversion anchor (sec61)", _inversion_rows),
    Check("cor16", "class-number headline bound at 1e11 (cor16)", _class_floor_rows),
    Check("sec2", "explicit-formula residuals |theta| <= 1 (sec2)", _residual_rows),
    Check("lemma31", "coprime-excess inequalities (lemma31)", _coprime_excess_rows),
    Check("sec61-floor", "method floor c >= ((h-1)/(2h-1))^2 (sec61)", _method_floor_rows),
)


def cmd_reproduce(args) -> int:
    all_reports: list[BoundReport] = []
    for check in CHECKS:
        reports = check.run(args.scale, args.workers)
        ok = all(r.verdict in ("pass", "not-applicable") for r in reports)
        title = check.title.format(qmax=check.qmax[args.scale]) if check.qmax else check.title
        _progress(f"[{'PASS' if ok else 'FAIL'}] {title} ({len(reports)} checks)")
        all_reports.extend(reports)
    all_reports = _sorted_reports(all_reports)
    _write_output(args, all_reports)
    return exit_code(all_reports)


# ----------------------------------------------------------------------
# Wiring
# ----------------------------------------------------------------------


def _write_output(args, reports: Sequence[BoundReport]) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            emit_reports(reports, args.format, fh)
    else:
        emit_reports(reports, args.format, sys.stdout)


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json", "human"), default="human")
    p.add_argument("--out", default=None, help="write reports to this path instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Takes every argument that starts with '-' and a digit for a value, not
    just plain numbers, so `--q -5..10` parses as `--q=-5..10` does.  Takes
    no abbreviated option: `--h` on a variant without it is not `--help`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


# The flags of the commands with variants.  A variant's spec names the
# flags its code reads, a trailing "!" marking those it needs; a flag it
# would ignore is not declared, so argparse rejects it.
_FLAGS = {
    "q": dict(type=_modulus),
    "h": dict(type=_index_h, help="index h, or inf"),
    "x": dict(type=_xs, default=[100.0], help="comma separated x values"),
    "m": dict(type=_modulus),
    # {0, 2 pi} holds only zeros of the trig polynomial: 3 points is the least grid that checks one
    "grid": dict(type=_int_at_least(3), default=2001),
    "alpha": dict(type=_alpha, default=1.0),
    **dict.fromkeys(("l1", "k-half", "prop62", "optimize"), dict(action="store_true")),
    "mellin": dict(type=_alpha),
    "weighted": dict(type=_lambda, help="lambda, or inf"),
    "lam": dict(type=_lambda, help="lambda, or inf; 8.35 when omitted"),
}
_SCAN_FLAGS = {
    "q": dict(type=_q_spec, help="single q or range a..b"),
    "qmin": dict(type=_modulus),
    "qmax": dict(type=_modulus),
    "workers": dict(type=_int_at_least(1), default=1),
    "subgroup": dict(default="squares", help="squares | powers:K | gens:a,b | trivial"),
    "per-class": dict(action="store_true"),
    "ceiling": dict(type=_int_at_least(2), help="search ceiling override"),
}
_EVALS = {
    **dict.fromkeys(("thm11", "thm12", "cor15", "thm15", "cor16", "sec43"), "q!"),
    "thm14": "q! h!",
    **dict.fromkeys(("alpha", "limit", "largeh"), "h!"),
}
_LEMMAS = {
    **dict.fromkeys(("2.1", "2.4", "2.6"), "x!"),
    **dict.fromkeys(("2.2", "2.3", "2.5", "5.1"), "x! q!"),
    "3.1": "x! m!",
    "trig": "x grid",
}
_KERNEL_READS = "l1 k-half mellin weighted prop62 optimize h lam"
_KERNELS = {"gamma": _KERNEL_READS, "fejer": "alpha " + _KERNEL_READS}


def _add_variants(sub, command: str, help: str, func, specs: dict[str, str], flags: dict[str, dict]) -> None:
    """`command VARIANT [options]`: one sub-parser per entry of specs."""
    variants = sub.add_parser(command, help=help).add_subparsers(dest="what", required=True)
    for name, spec in specs.items():
        p = variants.add_parser(name)
        for token in spec.split():
            flag = token.rstrip("!")
            p.add_argument(f"--{flag}", required=token.endswith("!"), **flags[flag])
        _add_output(p)
        p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="nonresidue", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    scans = {what: "q qmin qmax workers " + reads for what, (_, reads) in _SCANS.items()}
    _add_variants(sub, "scan", "range scans of bound vs search", cmd_scan, scans, _SCAN_FLAGS)
    _add_variants(sub, "eval", "single-shot formula evaluation", cmd_eval, _EVALS, _FLAGS)
    _add_variants(sub, "kernel", "kernel constants", cmd_kernel, _KERNELS, _FLAGS)
    _add_variants(sub, "lemma", "identity residual tables", cmd_lemma, _LEMMAS, _FLAGS)

    p = sub.add_parser("lvalue", help="L(1, chi) by independent methods")
    p.add_argument("--q", type=_modulus, required=True)
    p.add_argument("--index", type=_exact_int, default=None)
    p.add_argument("--tolerance", type=_alpha, default=1e-8, help="agreement tolerance")
    _add_output(p)
    p.set_defaults(func=cmd_lvalue)

    p = sub.add_parser("classnum", help="class numbers two ways (the classnum scan of Q, or of 5..N)")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--q", type=_one_q, default=None)
    which.add_argument("--qmax", dest="q", type=_classnum_qmax, metavar="N")
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    _add_output(p)
    p.set_defaults(func=cmd_scan, what="classnum")

    p = sub.add_parser("reproduce-paper", help="run the bundled verification checklist")
    scale = p.add_mutually_exclusive_group()
    scale.add_argument("--quick", dest="scale", action="store_const", const="quick", help="desk-scale ranges")
    scale.add_argument("--full", dest="scale", action="store_const", const="full", help="extended ranges (q <= 20000 progressions)")
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    _add_output(p)
    p.set_defaults(func=cmd_reproduce, scale="default")

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        _progress(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
