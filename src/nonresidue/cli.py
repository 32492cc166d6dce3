"""Command line frontend.

Subcommands: scan | eval | kernel | lemma | lvalue | classnum |
reproduce-paper.  Reports go to stdout (or --out) as CSV, JSON lines, or
a human table; progress and checklists go to stderr.  Exit status: 0 all
pass or not-applicable, 2 at least one fail, 3 not-found without fails,
1 usage error.  Output is byte-deterministic for a fixed configuration:
rows are merge-sorted by (q, target) and floats use shortest round-trip
formatting, so the worker count never changes the bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal, InvalidOperation
from typing import Callable, Iterable, NamedTuple, Sequence

from . import bounds, explicit_formula as ef, kernels
from .bounds import BoundReport
from .characters import character_group, is_fundamental_discriminant, primitive_characters
from .lfunctions import (
    FINITE_METHOD,
    HURWITZ_METHOD,
    SERIES_METHOD,
    fundamental_q_values,
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
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _report_row(r: BoundReport) -> dict:
    return {
        "formula_id": r.formula,
        "q": r.q,
        "target": r.target,
        "measured": r.measured,
        "bound": r.bound,
        "margin": r.margin,
        "applicable": r.applicable,
        "verdict": r.verdict,
    }


def emit_reports(reports: Sequence[BoundReport], fmt: str, stream) -> None:
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for r in reports:
            row = _report_row(r)
            writer.writerow([_fmt_value(row[f]) for f in CSV_FIELDS])
    elif fmt == "json":
        for r in reports:
            stream.write(json.dumps(_report_row(r)) + "\n")
    elif fmt == "human":
        widths = (10, 12, 28, 22, 22, 14, 6, 14)
        header = ("formula", "q", "target", "measured", "bound", "margin", "appl", "verdict")
        stream.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
        for r in reports:
            row = _report_row(r)
            cells = (
                row["formula_id"],
                str(row["q"]),
                row["target"][:28],
                _fmt_value(row["measured"])[:22],
                _fmt_value(row["bound"])[:22],
                _fmt_value(None if row["margin"] is None else round(row["margin"], 6))[:14],
                "yes" if row["applicable"] else "no",
                row["verdict"],
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


def _scan_task(payload) -> list[BoundReport]:
    formula, q, kwargs = payload
    return list(bounds.verify_stream(formula, [q], **kwargs))


def run_scan(formula: str, qs: Sequence[int], workers: int = 1, **kwargs) -> list[BoundReport]:
    payloads = [(formula, q, kwargs) for q in qs]
    out: list[BoundReport] = []
    if workers <= 1 or len(payloads) < 4:
        for p in payloads:
            out.extend(_scan_task(p))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(payloads) // (8 * workers))
            for part in pool.map(_scan_task, payloads, chunksize=chunk):
                out.extend(part)
    return _sorted_reports(out)


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


def _q_spec(text: str) -> range:
    """`--q` of a scan: a single q, or an inclusive range a..b."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(_modulus(lo), _modulus(hi) + 1)
    q = _modulus(text)
    return range(q, q + 1)


def _index_h(text: str) -> int | float:
    """`--h`: an integer index, or inf (also oo)."""
    return math.inf if text in ("inf", "oo") else _exact_int(text)


def _real(text: str) -> float:
    """A float flag; inf may also be written oo."""
    try:
        return math.inf if text == "oo" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _alpha(text: str) -> float:
    """`--alpha`: a finite number > 0."""
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


def _parse_qrange(args) -> range:
    if args.q is not None:
        qs = args.q
    elif args.qmin is not None and args.qmax is not None:
        qs = range(args.qmin, args.qmax + 1)
    else:
        _progress("error: pass --q Q, --q A..B, or --qmin A --qmax B")
        raise SystemExit(EXIT_USAGE)
    if not qs:
        _progress("error: empty q range")
        raise SystemExit(EXIT_USAGE)
    return qs


_SCAN_FORMULAS = {
    "qnr": "cor12",
    "subgroup": "thm11",
    "subgroup-clean": "thm12",
    "ap": "cor15",
    "coset": "thm14",
    "classnum": "eq13",
    "elementary": "sec43",
}


# Scans whose search takes no ceiling.
_UNBOUNDED_SCANS = ("qnr", "classnum", "elementary")

# What a q must be for the scans that skip every other q.
_SCAN_APPLIES_TO = {
    "qnr": "prime q >= 5",
    "classnum": "q > 4 with -q a fundamental discriminant",
}


def cmd_scan(args) -> int:
    formula = _SCAN_FORMULAS[args.what]
    if args.ceiling is not None and args.what in _UNBOUNDED_SCANS:
        _progress(f"error: scan {args.what} takes no --ceiling")
        return EXIT_USAGE
    qs = _parse_qrange(args)
    kwargs = {}
    if formula in ("thm11", "thm12", "thm14"):
        kwargs["subgroup"] = args.subgroup
    if formula == "cor15":
        kwargs["per_class"] = args.per_class
    if args.ceiling is not None:
        kwargs["ceiling"] = args.ceiling
    reports = run_scan(formula, qs, workers=args.workers, **kwargs)
    if not reports:
        needs = _SCAN_APPLIES_TO.get(args.what, "applicable q")
        _progress(f"error: scan {args.what} checks only {needs}; there is none in {qs.start}..{qs.stop - 1}")
        return EXIT_USAGE
    _write_output(args, reports)
    return exit_code(reports)


def cmd_eval(args) -> int:
    q, h = args.q, args.h
    rows: list[BoundReport] = []
    name = args.what
    if name in ("thm11", "thm12", "thm14", "cor15", "thm15", "cor16", "sec43") and q is None:
        _progress("error: --q required")
        return EXIT_USAGE
    if name in ("thm14", "alpha", "limit", "largeh") and h is None:
        _progress("error: --h required")
        return EXIT_USAGE
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
        rows.append(BoundReport("thm11", q, f"(log q + B)^2 with A={vals.a_term!r};B={vals.b_term!r}", None, vals.bound, None, q >= 3000, "not-applicable"))
    elif name == "thm12":
        rows.append(
            BoundReport("thm12", q, "(log q)^2 when no prime below it divides q", None, math.log(q) ** 2, None, bounds.subgroup_bound_clean_applicable(q), "not-applicable")
        )
    elif name == "thm14":
        rows.append(BoundReport("thm14", q, f"((h-1)log q + 3(h+1) + 2.5(loglog q)^2)^2 at h={h}", None, bounds.coset_bound(q, h), None, q >= 20000, "not-applicable"))
    elif name == "cor15":
        rows.append(BoundReport("cor15", q, "(phi(q) log q)^2", None, bounds.ap_bound(q), None, q > 3, "not-applicable"))
    elif name == "thm15":
        vb = bounds.l1_value_bounds(q)
        rows.append(BoundReport("thm15", q, "2e^g(loglog q - log2 + 1/2 + 1/loglog q)", None, vb.upper, None, q >= 1e10, "not-applicable"))
        rows.append(BoundReport("thm15", q, "12e^g/pi^2 (... + 14 loglog q/log q) for 1/|L|", None, vb.reciprocal_upper, None, q >= 1e10, "not-applicable"))
    elif name == "cor16":
        cb = bounds.class_number_bounds(q)
        rows.append(BoundReport("cor16", q, "h-lower: pi/(12e^g) sqrt(q)/(core + 14 loglog q/log q)", None, cb.lower, None, q >= 1e10, "not-applicable"))
        rows.append(BoundReport("cor16", q, "h-upper: 2e^g/pi sqrt(q) core", None, cb.upper, None, q >= 1e10, "not-applicable"))
        rows.append(BoundReport("cor16", q, "h-lower-floor", None, float(cb.lower_floor), None, q >= 1e10, "not-applicable"))
    elif name == "sec43":
        rows.extend(bounds.verify_elementary(q))
    elif name == "alpha":
        rows.append(BoundReport("alpha", 0, f"headline constant at h={h}", None, kernels.alpha_table(h), None, True, "not-applicable"))
    elif name == "limit":
        rows.append(BoundReport("limit", 0, f"((h-1)/(2h-1))^2 at h={h}", None, kernels.limit_constant(h), None, True, "not-applicable"))
    else:  # largeh
        rows.append(BoundReport("largeh", 0, f"(1/4)(1-1/h)^2(log 2h/(log 2h - 2))^2 at h={h}", None, kernels.largeh_constant(h), None, True, "not-applicable"))
    _write_output(args, rows)
    return EXIT_OK


def cmd_kernel(args) -> int:
    kern = kernels.gamma_kernel() if args.kernel == "gamma" else kernels.fejer_kernel(args.alpha)
    rows: list[BoundReport] = []
    if args.l1:
        rows.append(BoundReport("kernel", 0, f"{kern.name}:l1", None, kernels.line_l1(kern), None, True, "not-applicable"))
    if args.k_half:
        rows.append(BoundReport("kernel", 0, f"{kern.name}:K(1/2)", None, kern.at_half, None, True, "not-applicable"))
    if args.mellin is not None:
        numeric = kernels.mellin_numeric_check(kern, args.mellin)
        closed = kern.mellin(args.mellin)
        rows.append(BoundReport("kernel", 0, f"{kern.name}:mellin({args.mellin:g})", numeric, closed, closed - numeric, True, "pass" if abs(closed - numeric) < 1e-6 else "fail"))
    if args.weighted is not None:
        rows.append(BoundReport("kernel", 0, f"{kern.name}:W({args.weighted:g})", None, kernels.weighted_integral(kern, args.weighted), None, True, "not-applicable"))
    if args.prop62:
        bc = kernels.prop62_constant(kern, args.lam, args.h)
        rows.append(BoundReport("prop62", 0, f"{kern.name}:c(lam={args.lam:g};h={args.h})", None, bc.c, None, True, "not-applicable"))
    if args.optimize:
        lam_star, c_star = kernels.optimize_lambda(kern, args.h)
        rows.append(BoundReport("prop62", 0, f"{kern.name}:lam*(h={args.h})", None, lam_star, None, True, "not-applicable"))
        rows.append(BoundReport("prop62", 0, f"{kern.name}:c*(h={args.h})", None, c_star, None, True, "not-applicable"))
    if not rows:
        _progress("error: nothing requested; pass --l1/--k-half/--mellin/--weighted/--prop62/--optimize")
        return EXIT_USAGE
    _write_output(args, rows)
    return exit_code(rows)


def _residual_report_row(rep: ef.ResidualReport) -> BoundReport:
    q = 0 if rep.char is None else int(rep.char.split(".")[0][3:])
    target = f"x={rep.x:g}" + ("" if rep.char is None else f":{rep.char}")
    return BoundReport(
        f"lemma{rep.lemma}", q, target, abs(rep.theta), 1.0, 1.0 - abs(rep.theta), True,
        "pass" if rep.ok else "fail",
    )


def _primitive_characters(q: int) -> list:
    """primitive_characters(q), or a usage error when there are none."""
    chars = primitive_characters(q)
    if not chars:
        _progress(f"error: no primitive character mod {q} (there is none for q = 1 or q = 2 mod 4)")
        raise SystemExit(EXIT_USAGE)
    return chars


def _hadamard_row(x: float, chi, rb: float) -> BoundReport:
    """Lemma 2.3: |Re B(chi)| = rb lies in the window that x gives."""
    win = ef.hadamard_window(x, chi)
    return BoundReport("lemma2.3", chi.q, f"x={x:g}:{chi.label}", rb, win.upper, win.upper - rb, True, "pass" if win.contains(rb) else "fail")


# The flag each lemma needs besides --x.
_LEMMA_NEEDS = {"2.2": "q", "2.3": "q", "2.5": "q", "3.1": "m", "5.1": "q"}


def cmd_lemma(args) -> int:
    which = args.which
    if which != "trig" and not args.x:
        _progress(f"error: lemma {which} needs --x X1,X2,...")
        return EXIT_USAGE
    need = _LEMMA_NEEDS.get(which)
    if need and getattr(args, need) is None:
        _progress(f"error: lemma {which} needs --{need}")
        return EXIT_USAGE
    xs = [float(t) for t in args.x.split(",")] if args.x else []
    rows: list[BoundReport] = []
    if which in ("2.1", "2.4", "2.6"):
        for x in xs:
            rows.append(_residual_report_row(ef.lemma_residual(which, x)))
    elif which in ("2.2", "2.3", "2.5"):
        for chi in _primitive_characters(args.q):
            rb = re_b(chi)
            for x in xs:
                if which == "2.2":
                    rows.append(_residual_report_row(ef.character_log_residual(x, chi, rb)))
                elif which == "2.5":
                    rows.append(_residual_report_row(ef.log_l_residual(x, chi, rb)))
                else:
                    rows.append(_hadamard_row(x, chi, rb))
    elif which == "3.1":
        for x in xs:
            rep = ef.coprime_excess_sums(x, args.m)
            rows.append(
                BoundReport("lemma3.1", args.m, f"x={x:g}:log-weighted", rep.log_weighted, rep.log_weighted_bound, rep.log_weighted_bound - rep.log_weighted, True, "pass" if rep.log_weighted <= rep.log_weighted_bound + 1e-12 else "fail")
            )
            rows.append(
                BoundReport("lemma3.1", args.m, f"x={x:g}:harmonic", rep.harmonic, rep.harmonic_bound, rep.harmonic_bound - rep.harmonic, True, "pass" if rep.harmonic <= rep.harmonic_bound + 1e-12 else "fail")
            )
    elif which == "5.1":
        for chi in character_group(args.q):
            for x in xs:
                rep = ef.negative_pattern_minimum(x, chi)
                rows.append(
                    BoundReport("lemma5.1", args.q, f"x={x:g}:{chi.label}", rep.lhs, rep.alternating, rep.lhs - rep.alternating, True, "pass" if rep.ok else "fail")
                )
    else:  # trig
        for x in xs or [100.0]:
            rep = ef.two_adic_trig_polynomial(x, grid=args.grid)
            rows.append(
                BoundReport("trigpoly", 0, f"x={x:g}", rep.minimum, 0.0, rep.minimum, True, "pass" if rep.ok else "fail")
            )
    _write_output(args, rows)
    return exit_code(rows)


def cmd_lvalue(args) -> int:
    q = args.q
    chars = _primitive_characters(q)
    if args.index is not None:
        chars = [c for c in chars if c.index == args.index]
        if not chars:
            _progress(f"error: no primitive character with index {args.index} mod {q}")
            return EXIT_USAGE
    rows: list[BoundReport] = []
    tol = args.tolerance
    for chi in chars:
        base = l_at_1(chi, HURWITZ_METHOD)
        series = l_at_1(chi, SERIES_METHOD)
        gap = abs(base.value - series.value)
        rows.append(BoundReport("lvalue", q, f"{chi.label}:{HURWITZ_METHOD}", abs(base.value), None, None, True, "not-applicable"))
        rows.append(
            BoundReport("lvalue", q, f"{chi.label}:agree", gap, tol, tol - gap, True, "pass" if gap < tol else "fail")
        )
        if chi.is_real and chi.parity == 1 and q > 4:
            fin = l_at_1(chi, FINITE_METHOD)
            gap2 = abs(base.value - fin.value)
            rows.append(
                BoundReport("lvalue", q, f"{chi.label}:{FINITE_METHOD}", gap2, 1e-10, 1e-10 - gap2, True, "pass" if gap2 < 1e-10 else "fail")
            )
    _write_output(args, rows)
    return exit_code(rows)


def cmd_classnum(args) -> int:
    if args.qmax is not None:
        qs = fundamental_q_values(args.qmax)
        if not qs:
            _progress(f"error: no fundamental discriminant -q with 4 < q <= {args.qmax}")
            return EXIT_USAGE
    elif args.q > 4 and is_fundamental_discriminant(args.q):
        qs = [args.q]
    else:
        _progress(f"error: classnum --q checks only {_SCAN_APPLIES_TO['classnum']}; {args.q} is not one")
        return EXIT_USAGE
    reports = run_scan("eq13", qs, workers=args.workers)
    _write_output(args, reports)
    return exit_code(reports)


# ----------------------------------------------------------------------
# reproduce-paper
# ----------------------------------------------------------------------


def _tolerance_row(formula: str, target: str, value: float, reference: float, tol: float) -> BoundReport:
    gap = abs(value - reference)
    return BoundReport(formula, 0, target, gap, tol, tol - gap, True, "pass" if gap <= tol else "fail")


def _threshold_row(formula: str, q: int, target: str, value: float, at_least: float) -> BoundReport:
    return BoundReport(formula, q, target, at_least, value, value - at_least, True, "pass" if value >= at_least else "fail")


def _qnr_rows(scale: str, workers: int) -> list[BoundReport]:
    return run_scan("cor12", list(range(5, 3001)), workers=workers)


_AP_QMAX = {"quick": 300, "default": 2000, "full": 20000}


def _ap_rows(scale: str, workers: int) -> list[BoundReport]:
    return run_scan("cor15", list(range(4, _AP_QMAX[scale] + 1)), workers=workers)


def _subgroup_rows(scale: str, workers: int) -> list[BoundReport]:
    qs = range(3000, 3031) if scale == "quick" else range(3000, 3101)
    return run_scan("thm11", list(qs), workers=workers, subgroup="squares")


_CLASSNUM_QMAX = {"quick": 800, "default": 10000, "full": 10000}


def _classnum_rows(scale: str, workers: int) -> list[BoundReport]:
    return run_scan("eq13", fundamental_q_values(_CLASSNUM_QMAX[scale]), workers=workers)


# (lambda, h, c): the paper's kernel choices and the constants they give.
THM13_CHOICES = ((8.35, 2, 0.42), (6.55, 3, 0.49), (3.9, math.inf, 0.51))


def _gamma_constant_rows(scale: str, workers: int) -> list[BoundReport]:
    gamma = kernels.gamma_kernel()
    l1 = kernels.line_l1(gamma)
    rows = [
        _threshold_row("prop62", 0, "gamma:l1>=0.291", l1, 0.291),
        BoundReport("prop62", 0, "gamma:l1<=0.292", l1, 0.292, 0.292 - l1, True, "pass" if l1 <= 0.292 else "fail"),
    ]
    for lam, h, ref in THM13_CHOICES:
        bc = kernels.prop62_constant(gamma, lam, h)
        rows.append(_tolerance_row("prop62", f"gamma:c(lam={lam:g};h={h})-vs-{ref}", bc.c, ref, 0.01))
    return rows


FEJER_ALPHAS = (0.5, 1.0, 2.0, 4.0)


def _fejer_rows(scale: str, workers: int) -> list[BoundReport]:
    rows = []
    for alpha in FEJER_ALPHAS:
        kern = kernels.fejer_kernel(alpha)
        rows.append(_tolerance_row("fejer", f"l1(alpha={alpha:g})-vs-2alpha", kernels.line_l1(kern), 2 * alpha, 1e-8))
        closed = 4 * alpha - 4 + 4 * math.exp(-alpha)
        rows.append(_tolerance_row("fejer", f"W(1,alpha={alpha:g})-closed-form", kernels.weighted_integral(kern, 1.0), closed, 1e-10))
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
    return [_threshold_row("cor16", 10**11, "h-lower>=9052", bounds.class_number_bounds(1e11).lower, 9052.0)]


def _residual_rows(scale: str, workers: int) -> list[BoundReport]:
    quick = scale == "quick"
    untwisted_xs = [10.0, 100.0, 1e3, 1e4] if quick else [10.0, 100.0, 1e3, 1e4, 1e5, 1e6]
    twisted_qmax = 50 if quick else 300
    twisted_xs = [50.0, 100.0] if quick else [50.0, 100.0, 1e3, 1e4]
    rows = []
    for x in untwisted_xs:
        for lemma in ("2.1", "2.4", "2.6"):
            rows.append(_residual_report_row(ef.lemma_residual(lemma, x)))
    for q in range(3, twisted_qmax + 1):
        for chi in primitive_characters(q):
            rb = re_b(chi)
            logl = math.log(abs(l_at_1(chi).value))
            for x in twisted_xs:
                rows.append(_residual_report_row(ef.character_log_residual(x, chi, rb)))
                rows.append(_hadamard_row(x, chi, rb))
                rows.append(_residual_report_row(ef.log_l_residual(x, chi, rb, logl)))
    return rows


def _coprime_excess_rows(scale: str, workers: int) -> list[BoundReport]:
    m_max = 60 if scale == "quick" else 200
    m_xs = [10.0, 100.0] if scale == "quick" else [10.0, 100.0, 1000.0]
    rows = []
    for m in range(3, m_max + 1):
        for x in m_xs:
            rep = ef.coprime_excess_sums(x, m)
            verdict = "pass" if rep.ok else "fail"
            rows.append(BoundReport("lemma3.1", m, f"x={x:g}", max(rep.log_weighted - rep.log_weighted_bound, rep.harmonic - rep.harmonic_bound), 0.0, None, True, verdict))
    return rows


def _method_floor_rows(scale: str, workers: int) -> list[BoundReport]:
    rows = []
    for kern in (kernels.gamma_kernel(), kernels.fejer_kernel(1.0)):
        for lam in (0.5, 1.0, 2.0, 3.9, 6.55, 8.35, 12.0, 20.0):
            for h in (2, 3, 4, 10, 100, math.inf):
                try:
                    bc = kernels.prop62_constant(kern, lam, h)
                except kernels.NonpositiveDenominatorError:
                    continue
                rows.append(_threshold_row("floor", 0, f"{kern.name}:lam={lam:g};h={h}", bc.c, kernels.limit_constant(h)))
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
    scale = "quick" if args.quick else ("full" if args.full else "default")
    all_reports: list[BoundReport] = []
    for check in CHECKS:
        reports = check.run(scale, args.workers)
        ok = all(r.verdict in ("pass", "not-applicable") for r in reports)
        title = check.title.format(qmax=check.qmax[scale]) if check.qmax else check.title
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json", "human"), default="human")
    p.add_argument("--out", default=None, help="write reports to this path instead of stdout")
    p.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nonresidue", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="range scans of bound vs search")
    p.add_argument("what", choices=sorted(_SCAN_FORMULAS))
    p.add_argument("--q", type=_q_spec, default=None, help="single q or range a..b")
    p.add_argument("--qmin", type=_modulus, default=None)
    p.add_argument("--qmax", type=_modulus, default=None)
    p.add_argument("--subgroup", default="squares", help="squares | powers:K | gens:a,b | trivial")
    p.add_argument("--per-class", action="store_true")
    p.add_argument("--ceiling", type=_exact_int, default=None, help="search ceiling override")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("eval", help="single-shot formula evaluation")
    p.add_argument("what", choices=("thm11", "thm12", "thm14", "cor15", "thm15", "cor16", "sec43", "alpha", "limit", "largeh"))
    p.add_argument("--q", type=_modulus, default=None)
    p.add_argument("--h", type=_index_h, default=None, help="index h, or inf")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("kernel", help="kernel constants")
    p.add_argument("kernel", choices=("gamma", "fejer"))
    p.add_argument("--alpha", type=_alpha, default=1.0)
    p.add_argument("--l1", action="store_true")
    p.add_argument("--k-half", action="store_true")
    p.add_argument("--mellin", type=float, default=None)
    p.add_argument("--weighted", type=_lambda, default=None, help="lambda, or inf")
    p.add_argument("--prop62", action="store_true")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--h", type=_index_h, default="2", help="index h, or inf")
    p.add_argument("--lam", type=_lambda, default=8.35)
    _add_common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("lemma", help="identity residual tables")
    p.add_argument("which", choices=("2.1", "2.2", "2.3", "2.4", "2.5", "2.6", "3.1", "5.1", "trig"))
    p.add_argument("--x", default=None, help="comma separated x values")
    p.add_argument("--q", type=_modulus, default=None)
    p.add_argument("--m", type=_modulus, default=None)
    p.add_argument("--grid", type=int, default=2001)
    _add_common(p)
    p.set_defaults(func=cmd_lemma)

    p = sub.add_parser("lvalue", help="L(1, chi) by independent methods")
    p.add_argument("--q", type=_modulus, required=True)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=1e-8, help="agreement tolerance")
    _add_common(p)
    p.set_defaults(func=cmd_lvalue)

    p = sub.add_parser("classnum", help="class numbers two ways")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--q", type=_modulus, default=None)
    which.add_argument("--qmax", type=_modulus, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_classnum)

    p = sub.add_parser("reproduce-paper", help="run the bundled verification checklist")
    p.add_argument("--quick", action="store_true", help="desk-scale ranges")
    p.add_argument("--full", action="store_true", help="extended ranges (q <= 20000 progressions)")
    _add_common(p)
    p.set_defaults(func=cmd_reproduce)

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
