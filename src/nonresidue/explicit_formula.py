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
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.special import spence

from . import arith
from .arith import factorize
from .bounds import BoundReport, float_sum_slack
from .characters import DirichletCharacter, character_sums
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
# Prime powers, walked in stretches
# ----------------------------------------------------------------------


class PrimePowers(NamedTuple):
    """Prime powers n = p^k, increasing, with p, k, Lambda(n) = log p and log n."""

    n: np.ndarray
    base: np.ndarray
    k: np.ndarray
    lam: np.ndarray
    logn: np.ndarray


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for 0 <= n < 2^53: the float root rounds to it or to one above."""
    root = round(n ** (1.0 / k))
    return root - (root**k > n)


def _walk_top(x: float) -> int:
    """int(x) for a prime-power walk to x, which is exact only below 2^53
    (_iroot, and the int64 powers)."""
    if not x < 2**53:  # nan and inf too
        raise ValueError(f"x = {x:g} is not below 2^53, the limit of exact prime powers")
    return int(x)


def prime_power_table(limit: float, above: float = 0, primes: np.ndarray | None = None) -> PrimePowers:
    """The prime powers in (above, limit], or only the powers of `primes`
    (int64, increasing) when given.  Caches nothing: the primes come from
    arith.primes_between per call."""
    lo, hi = int(above), _walk_top(limit)
    between = arith.primes_between if primes is None else lambda a, b: primes[(primes > a) & (primes <= b)]
    # the bases of the k-th powers, for k = 1 and every k with 2^k <= hi
    bases = [between(_iroot(lo, k), _iroot(hi, k)) for k in range(1, max(hi.bit_length(), 2))]
    base = np.concatenate(bases)
    k = np.repeat(np.arange(1, len(bases) + 1), [len(b) for b in bases])
    n = base**k
    order = np.argsort(n, kind="stable")
    n, base, k = n[order], base[order], k[order]
    return PrimePowers(n, base, k, np.log(base.astype(float)), np.log(n.astype(float)))


def _stretches(x: float) -> Iterator[PrimePowers]:
    """The prime powers n <= x, in stretches of at most arith._WINDOW integers."""
    top, width = _walk_top(x), arith._WINDOW
    for lo in range(0, top, width):
        yield prime_power_table(min(lo + width, top), lo)


def _weights(kind: str, x: float, t: PrimePowers) -> np.ndarray:
    """The weights of one sum kind, or of the lemma 5.1 pattern, over the
    prime powers of t, all <= x, x > 1."""
    lam, logn, lx = t.lam, t.logn, math.log(x)
    if kind == "cheb":
        return lam * (lx - logn)
    nf = t.n.astype(float)
    if kind == "psi":
        return lam / nf * (1.0 - nf / x)
    if kind == "pattern":
        return lam * (1.0 / (nf * logn) - 1.0 / (x * lx))
    return lam / (nf * logn) * (lx - logn) / lx  # "loglog"


_KINDS = ("cheb", "psi", "loglog")


@lru_cache(maxsize=8)
def _twisted_weights(x: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """One (W, n) per stretch: row k of W holds the weights of _KINDS[k]
    over the stretch's prime powers n, x > 1.  They do not depend on q,
    so every modulus shares them.  Cached; do not mutate."""
    return tuple((np.stack([_weights(kind, x, t) for kind in _KINDS]), t.n) for t in _stretches(x))


def _binned(w: np.ndarray, n: np.ndarray, q: int) -> np.ndarray:
    """B[r, k] = sum of row k of w over n = r (mod q), shape (q, rows)."""
    r = n % q
    return np.stack([np.bincount(r, weights=row, minlength=q) for row in w], axis=1)


# The sec2 checklist asks for four x per modulus.
@lru_cache(maxsize=64)
def _bins(x: float, q: int) -> np.ndarray:
    """B[r, k] = sum of _KINDS[k]'s weights over n = r (mod q), shape
    (q, 3), shared by every character mod q: the first stretch's bins
    plus each later one's.  Cached; do not mutate."""
    return reduce(np.add, (_binned(w, n, q) for w, n in _twisted_weights(x)))


def _sum(kind: str, x: float, chi: DirichletCharacter | None):
    if x <= 1:
        return 0.0 if chi is None else 0j
    if chi is None:
        # fsum is correctly rounded, so the stretches do not change the sum
        return math.fsum(chain.from_iterable(_weights(kind, x, t) for t in _stretches(x)))
    return character_sums(chi, _bins, x)[_KINDS.index(kind)]


def cheb_log_sum(x: float, chi: DirichletCharacter | None = None):
    """sum_{n<=x} Lambda(n) chi(n) log(x/n); untwisted when chi is None.

    The prime powers come in stretches of at most arith._WINDOW integers.
    Twisted, all three kinds' weights are binned by n mod q once per (x, q),
    and characters.character_sums reads chi's three sums off its block's
    product with the bins, with no table per chi.  Untwisted, the
    stretches feed one math.fsum, uncached.
    """
    return _sum("cheb", x, chi)


def weighted_psi_sum(x: float, chi: DirichletCharacter | None = None):
    """sum_{n<=x} Lambda(n)/n chi(n) (1 - n/x), computed as cheb_log_sum is."""
    return _sum("psi", x, chi)


def loglog_sum(x: float, chi: DirichletCharacter | None = None):
    """sum_{n<=x} Lambda(n)/(n log n) chi(n) log(x/n)/log(x), computed as cheb_log_sum is."""
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
    return ThetaWindow(ends[0], ends[1])


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


def coprime_excess_sums(x: float, m: int) -> list[BoundReport]:
    """Lemma 3.1: prime powers sharing a factor with m, each weighted sum
    against its own bound, with the float_sum_slack of that bound.

    sum_{n<=x, (n,m)>1} Lambda(n) log(x/n)      <= omega(m) (log x)^2 / 2
    sum_{n<=x, (n,m)>1} Lambda(n)/n (1 - n/x)   <= sum_{p|m} log p/(p-1)

    They read no prime table: a prime power shares a factor with m exactly
    when its prime divides m, so only the powers of factorize(m)'s primes.
    """
    if m < 3 or x < 2:
        raise ValueError("need m >= 3 and x >= 2")
    fac = factorize(m)
    t = prime_power_table(x, primes=np.array([p for p, _ in fac.factors], dtype=np.int64))
    return [
        BoundReport.decide("lemma3.1", m, f"x={x:g}:{name}", math.fsum(_weights(kind, x, t)), upper=bound, slack=float_sum_slack(bound))
        for name, kind, bound in (
            ("log-weighted", "cheb", 0.5 * fac.omega * math.log(x) ** 2),
            ("harmonic", "psi", math.fsum(math.log(p) / (p - 1) for p, _ in fac.factors)),
        )
    ]


# ----------------------------------------------------------------------
# Negative-pattern minimum and the dyadic trigonometric polynomial
# ----------------------------------------------------------------------


@lru_cache(maxsize=8)
def _pattern_bins(x: float, q: int) -> np.ndarray:
    """B[r, 0] sums the pattern weights Lambda(n)(1/(n log n) - 1/(x log x))
    over n = r (mod q), shape (q, 1), shared by every character mod q: the
    first stretch's bins plus each later one's.  Cached; do not mutate."""
    return reduce(np.add, (_binned(_weights("pattern", x, t)[None], t.n, q) for t in _stretches(x)))


@lru_cache(maxsize=8)
def _alternating_sum(x: float) -> float:
    """The all-minus-one pattern sum: each pattern weight times (-1)^k."""
    signed = (_weights("pattern", x, t) * np.where(t.k % 2 == 0, 1.0, -1.0) for t in _stretches(x))
    return math.fsum(chain.from_iterable(signed))


def negative_pattern_minimum(x: float, chi: DirichletCharacter) -> BoundReport:
    """Lemma 5.1: Re sum Lambda(n) chi(n) (1/(n log n) - 1/(x log x)) is at
    least the all-minus-one pattern sum_{p^k<=x} Lambda(p^k)(-1)^k (...).

    The weights are binned once per (x, q); characters.character_sums
    reads the twisted sum off the bins, so chi builds no table of its own."""
    if x < 100:
        raise ValueError("x >= 100 required")
    lhs = character_sums(chi, _pattern_bins, x)[0].real
    alternating = _alternating_sum(x)
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
