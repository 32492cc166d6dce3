"""Weighted prime-power sums and their closed-form main terms.

Each identity here has the shape

    prime-power sum = main terms + theta * envelope,      |theta| <= 1,

where theta absorbs the zero sums that are never computed directly.
The evaluators compute both sides and solve for theta, so the residual
bound becomes a falsifiable desk-scale check instead of an assumption.
A |theta| > 1 in the tested ranges means a bug (the underlying zero
hypothesis holds comfortably there).

Sum kinds (chi optional in each):

    cheb_log_sum      sum_{n<=x} Lambda(n) chi(n) log(x/n)
    weighted_psi_sum  sum_{n<=x} Lambda(n)/n chi(n) (1 - n/x)
    loglog_sum        sum_{n<=x} Lambda(n)/(n log n) chi(n) log(x/n)/log(x)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import spence

from .arith import factorize, primes_up_to
from .bounds import BoundReport, float_sum_slack
from .characters import _BLOCK, DirichletCharacter, _block_sums
from .lfunctions import EULER_GAMMA, HADAMARD_B, PSI_AT_1, PSI_AT_HALF, l_at_1

__all__ = [
    "DegenerateWindowError",
    "ResidualReport",
    "ThetaWindow",
    "WINDOW_SLACK",
    "cheb_log_sum",
    "character_log_residual",
    "coprime_excess_sums",
    "error_terms",
    "hadamard_window",
    "lemma_residual",
    "log_l_residual",
    "loglog_sum",
    "negative_pattern_minimum",
    "tail_series",
    "two_adic_trig_polynomial",
    "weighted_psi_sum",
]


class DegenerateWindowError(ArithmeticError):
    """The theta-denominator can vanish; no finite window exists."""


# ----------------------------------------------------------------------
# Prime-power table
# ----------------------------------------------------------------------


class _PrimePowerTable:
    """Prime powers n = p^k <= limit with Lambda(n), log n, p, and k."""

    __slots__ = ("limit", "n", "base", "k", "lam", "logn")

    def __init__(self, limit: int):
        ps = primes_up_to(limit)
        cols_n = [ps]
        cols_p = [ps]
        cols_k = [np.ones(len(ps), dtype=np.int64)]
        k = 2
        while 2**k <= limit:
            root = int(limit ** (1.0 / k)) + 2
            while root**k > limit:
                root -= 1
            pk = primes_up_to(root)
            if len(pk) == 0:
                break
            cols_n.append(pk**k)
            cols_p.append(pk)
            cols_k.append(np.full(len(pk), k, dtype=np.int64))
            k += 1
        n = np.concatenate(cols_n)
        order = np.argsort(n, kind="stable")
        self.limit = limit
        self.n = n[order]
        self.base = np.concatenate(cols_p)[order]
        self.k = np.concatenate(cols_k)[order]
        self.lam = np.log(self.base.astype(float))
        self.logn = np.log(self.n.astype(float))


_table: _PrimePowerTable | None = None


def prime_power_table(limit: float) -> _PrimePowerTable:
    global _table
    need = int(limit)
    if _table is None or _table.limit < need:
        _table = _PrimePowerTable(max(need, 1 << 14))
    return _table


def _prefix(x: float) -> tuple[_PrimePowerTable, int]:
    t = prime_power_table(x)
    return t, int(np.searchsorted(t.n, math.floor(x), side="right"))


def _weights(kind: str, x: float) -> tuple[np.ndarray, np.ndarray]:
    """(weights, n) over the prime powers n <= x for one sum kind, x > 1."""
    t, m = _prefix(x)
    lam, logn, lx = t.lam[:m], t.logn[:m], math.log(x)
    if kind == "cheb":
        return lam * (lx - logn), t.n[:m]
    nf = t.n[:m].astype(float)
    if kind == "psi":
        return lam / nf * (1.0 - nf / x), t.n[:m]
    return lam / (nf * logn) * (lx - logn) / lx, t.n[:m]  # "loglog"


_KINDS = ("cheb", "psi", "loglog")


@lru_cache(maxsize=8)
def _twisted_weights(x: float) -> tuple[np.ndarray, np.ndarray]:
    """(W, n): row k of W holds the weights of _KINDS[k] over the prime
    powers n <= x, x > 1.  They do not depend on q, so every modulus
    shares them.  Cached; do not mutate."""
    ws = [_weights(kind, x) for kind in _KINDS]
    return np.stack([w for w, _ in ws]), ws[0][1]


# The sec2 checklist asks for four x per modulus.
@lru_cache(maxsize=64)
def _bins(x: float, q: int) -> np.ndarray:
    """B[r, k] = sum of _KINDS[k]'s weights over n = r (mod q), shape
    (q, 3), shared by every character mod q.  Cached; do not mutate."""
    w, n = _twisted_weights(x)
    r = n % q
    return np.stack([np.bincount(r, weights=row, minlength=q) for row in w], axis=1)


@lru_cache(maxsize=32)
def _twisted_sums(x: float, q: int, b: int) -> list[list[complex]]:
    """[i][k]: the _KINDS[k] sum twisted by the character of index
    16b + i mod q, for the whole block at once."""
    return _block_sums(q, b, _bins(x, q))


def _sum(kind: str, x: float, chi: DirichletCharacter | None):
    if x <= 1:
        return 0.0 if chi is None else 0j
    if chi is None:
        return float(math.fsum(_weights(kind, x)[0]))
    b, i = divmod(chi.index, _BLOCK)
    return _twisted_sums(x, chi.q, b)[i][_KINDS.index(kind)]


def cheb_log_sum(x: float, chi: DirichletCharacter | None = None):
    """sum_{n<=x} Lambda(n) chi(n) log(x/n); untwisted when chi is None.

    Twisted, the weights of all three kinds are binned by n mod q once
    per (x, q), and the sums of 16 characters at a time come from one
    real product of their block of values with the bins, cached per
    (x, q, block); chi builds no table of its own.  Untwisted sums are
    summed with math.fsum and not cached.
    """
    return _sum("cheb", x, chi)


def weighted_psi_sum(x: float, chi: DirichletCharacter | None = None):
    """sum_{n<=x} Lambda(n)/n chi(n) (1 - n/x).

    Twisted, read from the same block product as cheb_log_sum; untwisted
    sums are uncached.
    """
    return _sum("psi", x, chi)


def loglog_sum(x: float, chi: DirichletCharacter | None = None):
    """sum_{n<=x} Lambda(n)/(n log n) chi(n) log(x/n)/log(x).

    Twisted, read from the same block product as cheb_log_sum; untwisted
    sums are uncached.
    """
    return _sum("loglog", x, chi)


# ----------------------------------------------------------------------
# Closed-form error terms
# ----------------------------------------------------------------------
#
# The displayed tail series are summed in closed form through the
# dilogarithm Li2(y) = spence(1 - y) and artanh; the term-by-term sums
# survive as independent oracles in the test suite.


def _dilog(y: float) -> float:
    return float(spence(1.0 - y))


def tail_series(x: float, shape: str) -> float:
    """The four displayed tail series, exactly.

    shape "harmonic-odd"   sum_{k>=1} x^(-2k-1) / (2k (2k+1))
    shape "harmonic-even"  sum_{k>=0} x^(-2k-2) / ((2k+1)(2k+2))
    shape "square-even"    sum_{k>=1} x^(-2k)   / (2k)^2
    shape "square-odd"     sum_{k>=0} x^(-2k-1) / (2k+1)^2
    """
    if x <= 1:
        raise ValueError("tail series need x > 1")
    y = 1.0 / x
    if shape == "harmonic-odd":
        return -(y / 2) * math.log1p(-y * y) - (math.atanh(y) - y)
    if shape == "harmonic-even":
        return y * math.atanh(y) + 0.5 * math.log1p(-y * y)
    if shape == "square-even":
        return _dilog(y * y) / 4
    if shape == "square-odd":
        return (_dilog(y) - _dilog(-y)) / 2
    raise ValueError(f"unknown series shape {shape!r}")


@lru_cache(maxsize=64)
def error_terms(x: float, parity: int, family: str) -> float:
    """Closed-form lower-order terms for the two identity families.

    family "E" pairs with the (1 - n/x) weights, family "Etilde" with the
    log(x/n) weights; parity selects the even (0) or odd (1) shape.
    Cached: a checklist asks for the same few (x, parity, family) for
    every character.
    """
    if x <= 1:
        raise ValueError("error terms need x > 1")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    g = EULER_GAMMA
    lx = math.log(x)
    if family == "E":
        if parity == 0:
            return (
                -math.log(2)
                - g / 2 * (1 - 1 / x)
                + (lx + 1) / x
                - tail_series(x, "harmonic-odd")
            )
        return -tail_series(x, "harmonic-even") - g / 2 * (1 - 1 / x) + math.log(2) / x
    if family == "Etilde":
        if parity == 0:
            return math.pi**2 / 24 - g / 2 * lx - 0.5 * lx**2 - tail_series(x, "square-even")
        return math.pi**2 / 8 - (math.log(2) + g / 2) * lx - tail_series(x, "square-odd")
    raise ValueError(f"unknown family {family!r}")


# ----------------------------------------------------------------------
# Residual reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """One identity at one x; q and char are 0 and None when untwisted."""

    lemma: str
    x: float
    q: int
    char: str | None
    lhs: float
    main: float
    envelope: float
    theta: float


def _report(lemma: str, x: float, chi, lhs: float, main: float, env: float) -> ResidualReport:
    q, char = (0, None) if chi is None else (chi.q, chi.label)
    return ResidualReport(lemma, x, q, char, lhs, main, env, (lhs - main) / env)


def smoothed_psi_log_residual(x: float) -> ResidualReport:
    """Untwisted log-weighted identity; envelope 2|B|(sqrt(x) + 1)."""
    if x <= 1:
        raise ValueError("x > 1 required")
    lhs = cheb_log_sum(x)
    series = math.pi**2 / 24 - tail_series(x, "square-even")
    main = x - math.log(2 * math.pi) * math.log(x) - 1 + series
    env = 2 * abs(HADAMARD_B) * (math.sqrt(x) + 1)
    return _report("2.1", x, None, lhs, main, env)


def smoothed_psi_harmonic_residual(x: float) -> ResidualReport:
    """Untwisted (1 - n/x) identity; envelope 2|B|/sqrt(x)."""
    if x <= 1:
        raise ValueError("x > 1 required")
    lhs = weighted_psi_sum(x)
    main = (
        math.log(x)
        - (1 + EULER_GAMMA)
        + math.log(2 * math.pi) / x
        - tail_series(x, "harmonic-odd")
    )
    env = 2 * abs(HADAMARD_B) / math.sqrt(x)
    return _report("2.4", x, None, lhs, main, env)


def loglog_residual(x: float) -> ResidualReport:
    """Untwisted log log identity, x >= e."""
    if x < math.e:
        raise ValueError("x >= e required")
    lhs = loglog_sum(x)
    lx = math.log(x)
    main = math.log(lx) + EULER_GAMMA - 1 + EULER_GAMMA / lx
    env = 2 * abs(HADAMARD_B) / (math.sqrt(x) * lx**2) + 1 / (3 * x**3 * lx**2)
    return _report("2.6", x, None, lhs, main, env)


def character_log_residual(x: float, chi: DirichletCharacter, re_b_value: float) -> ResidualReport:
    """Twisted log-weighted identity for primitive chi.

    Re S(x, chi) = |Re B|(2 theta sqrt(x) + 2 theta + log x)
                   + (1/2) log(q/pi) log x + Etilde_parity(x).
    """
    if x <= 1:
        raise ValueError("x > 1 required")
    if not chi.is_primitive or chi.is_principal:
        raise ValueError("primitive non-principal character required")
    lhs = cheb_log_sum(x, chi).real
    lx = math.log(x)
    main = re_b_value * lx + 0.5 * math.log(chi.q / math.pi) * lx + error_terms(x, chi.parity, "Etilde")
    env = re_b_value * (2 * math.sqrt(x) + 2)
    return _report("2.2", x, chi, lhs, main, env)


# How far |Re B| may lie outside its window and still pass: room for the
# rounding of Re B and of the twisted prime-power sum in the window's ends.
WINDOW_SLACK = 1e-9


@dataclass(frozen=True)
class ThetaWindow:
    lower: float
    upper: float
    bracket: float

    def contains(self, value: float) -> bool:
        return self.lower - WINDOW_SLACK <= value <= self.upper + WINDOW_SLACK


def hadamard_window(x: float, chi: DirichletCharacter) -> ThetaWindow:
    """Admissible interval for |Re B(chi)| as theta sweeps [-1, 1].

    |Re B| = (1 + 2 theta/sqrt(x) + 1/x)^(-1) *
             ((1/2)(1 - 1/x) log(q/pi) - Re sum + E_parity(x)).
    """
    if x <= 1:
        raise ValueError("x > 1 required")
    if not chi.is_primitive or chi.is_principal:
        raise ValueError("primitive non-principal character required")
    bracket = (
        0.5 * (1 - 1 / x) * math.log(chi.q / math.pi)
        - weighted_psi_sum(x, chi).real
        + error_terms(x, chi.parity, "E")
    )
    d_hi = 1 + 2 / math.sqrt(x) + 1 / x
    d_lo = 1 - 2 / math.sqrt(x) + 1 / x  # = (1 - 1/sqrt(x))^2
    if d_lo <= 1e-12:
        raise DegenerateWindowError(f"theta denominator can vanish at x={x}")
    ends = sorted((bracket / d_hi, bracket / d_lo))
    return ThetaWindow(ends[0], ends[1], bracket)


def log_l_residual(
    x: float,
    chi: DirichletCharacter,
    re_b_value: float,
    log_abs_l: float | None = None,
) -> ResidualReport:
    """Identity for log |L(1, chi)| with combined theta envelope.

    The two theta terms (zero sum and trivial-zero tail) are merged:
    envelope = 2|Re B|/(sqrt(x) log^2 x) + 2/(x log^2 x).
    """
    if x < 2:
        raise ValueError("x >= 2 required")
    if not chi.is_primitive or chi.is_principal:
        raise ValueError("primitive non-principal character required")
    if log_abs_l is None:
        log_abs_l = math.log(abs(l_at_1(chi).value))
    lx = math.log(x)
    psi_term = PSI_AT_1 if chi.parity == 1 else PSI_AT_HALF
    main = (
        loglog_sum(x, chi).real
        + (0.5 * math.log(chi.q / math.pi) + 0.5 * psi_term) / lx
        - re_b_value / lx
    )
    env = 2 * re_b_value / (math.sqrt(x) * lx**2) + 2 / (x * lx**2)
    return _report("2.5", x, chi, log_abs_l, main, env)


_RESIDUALS = {
    "2.1": smoothed_psi_log_residual,
    "2.4": smoothed_psi_harmonic_residual,
    "2.6": loglog_residual,
}


def lemma_residual(lemma: str, x: float) -> ResidualReport:
    """Dispatch for the untwisted identities, keyed by checklist id."""
    try:
        fn = _RESIDUALS[str(lemma)]
    except KeyError:
        raise ValueError(f"unknown untwisted identity {lemma!r}") from None
    return fn(x)


# ----------------------------------------------------------------------
# Unconditional comparisons
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CoprimeExcessReport:
    m: int
    x: float
    log_weighted: float
    log_weighted_bound: float
    harmonic: float
    harmonic_bound: float


def coprime_excess_sums(x: float, m: int) -> CoprimeExcessReport:
    """Prime powers sharing a factor with m: both weighted sums and bounds.

    sum_{n<=x, (n,m)>1} Lambda(n) log(x/n)      <= omega(m) (log x)^2 / 2
    sum_{n<=x, (n,m)>1} Lambda(n)/n (1 - n/x)   <= sum_{p|m} log p/(p-1)
    """
    if m < 3 or x < 2:
        raise ValueError("need m >= 3 and x >= 2")
    t, cut = _prefix(x)
    base = t.base[:cut]
    shared = m % base == 0
    nf = t.n[:cut].astype(float)[shared]
    lam = t.lam[:cut][shared]
    logn = t.logn[:cut][shared]
    lhs_log = float(math.fsum(lam * (math.log(x) - logn)))
    lhs_harm = float(math.fsum(lam / nf * (1.0 - nf / x)))
    fac = factorize(m)
    bound_log = 0.5 * fac.omega * math.log(x) ** 2
    bound_harm = math.fsum(math.log(p) / (p - 1) for p, _ in fac.factors)
    return CoprimeExcessReport(m, x, lhs_log, bound_log, lhs_harm, bound_harm)


# ----------------------------------------------------------------------
# Negative-pattern minimum and the dyadic trigonometric polynomial
# ----------------------------------------------------------------------


@lru_cache(maxsize=8)
def _pattern_bins(x: float, q: int) -> tuple[np.ndarray, float]:
    """(B, alternating) at (x, q): B[r, 0] sums the weights
    Lambda(n)(1/(n log n) - 1/(x log x)) over n = r (mod q), shape (q, 1),
    shared by every character mod q; alternating is the all-minus-one
    pattern sum.  Cached; do not mutate."""
    t, cut = _prefix(x)
    nf = t.n[:cut].astype(float)
    w = t.lam[:cut] * (1.0 / (nf * t.logn[:cut]) - 1.0 / (x * math.log(x)))
    signs = np.where(t.k[:cut] % 2 == 0, 1.0, -1.0)
    return np.bincount(t.n[:cut] % q, weights=w, minlength=q)[:, None], float(math.fsum(w * signs))


@lru_cache(maxsize=8)
def _pattern_sums(x: float, q: int, b: int) -> list[list[complex]]:
    """[i][0]: the pattern sum twisted by the character of index 16b + i."""
    return _block_sums(q, b, _pattern_bins(x, q)[0])


def negative_pattern_minimum(x: float, chi: DirichletCharacter) -> BoundReport:
    """Lemma 5.1: Re sum Lambda(n) chi(n) (1/(n log n) - 1/(x log x)) is at
    least the all-minus-one pattern sum_{p^k<=x} Lambda(p^k)(-1)^k (...).

    The weights are binned once per (x, q); the twisted sum is chi's row
    of its 16-character block's product with the bins, cached per
    (x, q, block), so chi builds no table of its own."""
    if x < 100:
        raise ValueError("x >= 100 required")
    b, i = divmod(chi.index, _BLOCK)
    lhs = _pattern_sums(x, chi.q, b)[i][0].real
    alternating = _pattern_bins(x, chi.q)[1]
    return BoundReport.decide("lemma5.1", chi.q, f"x={x:g}:{chi.label}", lhs, lower=alternating, slack=float_sum_slack(alternating))


def two_adic_trig_polynomial(x: float, grid: int = 2001) -> BoundReport:
    """Nonnegativity of the p = 2 comparison polynomial.

    With a_k = 1/(2^k k log 2) - 1/(x log x) for 2^k <= x,

        g(phi) = sum_{k<=5} (-1)^(k-1) (1 - cos k phi) a_k
                 - (1 - cos phi) sum_{k>=6 even} k^2 a_k,

    where the second piece absorbs every dropped even term through
    (1 - cos k phi) <= k^2 (1 - cos phi); odd dropped terms only help.
    g(0) = 0 and g should stay >= 0 on the whole circle: its least value on
    the grid is checked against 0, up to 1e-12 of rounding.
    """
    if x < 100:
        raise ValueError("x >= 100 required")
    log2 = math.log(2)
    k_max = int(math.log(x) / log2)
    tail_weight = 1.0 / (x * math.log(x))

    def a(k: int) -> float:
        return 1.0 / (2**k * k * log2) - tail_weight

    tail_coeff = math.fsum(k * k * a(k) for k in range(6, k_max + 1) if k % 2 == 0)
    phi = np.linspace(0.0, 2 * math.pi, grid)
    g = np.zeros_like(phi)
    for k in range(1, min(5, k_max) + 1):
        g += (-1.0) ** (k - 1) * (1.0 - np.cos(k * phi)) * a(k)
    g -= (1.0 - np.cos(phi)) * tail_coeff
    return BoundReport.decide("trigpoly", 0, f"x={x:g}", float(g.min()), lower=0.0, slack=1e-12)
