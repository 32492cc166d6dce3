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

`lemma_residual` evaluates the untwisted identities (Lemmas 2.1, 2.4, 2.6).
The twisted ones, `character_log_residual`, `hadamard_window` and
`log_l_residual` (2.2, 2.3, 2.5), take |Re B| and log |L(1, chi)| from
the caller: `cli.sec2_rows` reads each once per character.  Each calls
its prime-power sum and reads the rest from `_sec2_terms`, once per
(x, q, parity).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import arith
from .arith import factorize
from .bounds import BoundReport, float_sum_slack
from .characters import DirichletCharacter, character_sums
from .lfunctions import EULER_GAMMA, HADAMARD_B, PSI_AT_1, PSI_AT_HALF, _require_primitive_nonprincipal

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


# Four entries are the sec2 checklist's four x, one stretch each, so every
# modulus after the first finds its weights here.  An x of many stretches
# walks the primes again for each q, holding at most four stretches.
@lru_cache(maxsize=4)
def _stretch_weights(kinds: tuple[str, ...], x: float, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """(W, n) over the stretch of prime powers n in (lo, lo + arith._WINDOW],
    all <= x, x > 1: row k of W holds the weights of kinds[k].  They do
    not depend on q, so every modulus shares them.  Cached; do not mutate."""
    t = prime_power_table(min(lo + arith._WINDOW, _walk_top(x)), lo)
    return np.stack([_weights(kind, x, t) for kind in kinds]), t.n


# The sec2 checklist asks for four x per modulus.
@lru_cache(maxsize=64)
def _bins(kinds: tuple[str, ...], x: float, q: int) -> np.ndarray:
    """B[r, k] = sum of kinds[k]'s weights over n = r (mod q), shape
    (q, len(kinds)), shared by every character mod q: zeros plus one
    bincount per kind and stretch.  Cached; do not mutate."""
    out = np.zeros((q, len(kinds)))
    for lo in range(0, _walk_top(x), arith._WINDOW):
        w, n = _stretch_weights(kinds, x, lo)
        r = n % q
        for k, row in enumerate(w):
            out[:, k] += np.bincount(r, weights=row, minlength=q)
    return out


def _sum(kind: str, x: float, chi: DirichletCharacter | None):
    if x <= 1:
        return 0.0 if chi is None else 0j
    if chi is None:
        # fsum is correctly rounded, so the stretches do not change the sum
        return math.fsum(chain.from_iterable(_weights(kind, x, t) for t in _stretches(x)))
    return character_sums(chi, _bins, _KINDS, x)[_KINDS.index(kind)]


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
    from scipy.special import spence

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


class ResidualReport(NamedTuple):
    """One identity at one x; q and char are 0 and None when untwisted."""

    lemma: str
    x: float
    q: int
    char: str | None
    lhs: float
    main: float
    envelope: float
    theta: float


# Eight entries: the sec2 checklist's four x at both parities.
@lru_cache(maxsize=8)
def _sec2_terms(x: float, q: int, parity: int) -> tuple[tuple[float, ...], ...]:
    """The parts of identities 2.2, 2.3 and 2.5 that depend only on
    (x, q, parity), x > 1, one tuple per identity, each part evaluated in
    its formula's operation order so the rows keep their bits.  Computed
    once per modulus, not once per character."""
    lx, log_q, root = math.log(x), math.log(q / math.pi), math.sqrt(x)
    psi_term = PSI_AT_1 if parity == 1 else PSI_AT_HALF
    return (
        (lx, 0.5 * log_q * lx, error_terms(x, parity, "Etilde"), 2 * root + 2),
        (0.5 * (1 - 1 / x) * log_q, error_terms(x, parity, "E"), 1 + 2 / root + 1 / x, 1 - 2 / root + 1 / x),
        (lx, (0.5 * log_q + 0.5 * psi_term) / lx, root * lx**2, 2 / (x * lx**2)),
    )


def character_log_residual(x: float, chi: DirichletCharacter, re_b_value: float) -> ResidualReport:
    """Twisted log-weighted identity for primitive chi.

    Re S(x, chi) = |Re B|(2 theta sqrt(x) + 2 theta + log x)
                   + (1/2) log(q/pi) log x + Etilde_parity(x).
    """
    if x <= 1:
        raise ValueError("x > 1 required")
    _require_primitive_nonprincipal(chi)
    lhs = cheb_log_sum(x, chi).real
    lx, c22, e_tilde, s22 = _sec2_terms(x, chi.q, chi.parity)[0]
    main = re_b_value * lx + c22 + e_tilde
    env = re_b_value * s22
    return ResidualReport("2.2", x, chi.q, chi.label, lhs, main, env, (lhs - main) / env)


# How far |Re B| may lie outside its window and still pass: room for the
# rounding of Re B and of the twisted prime-power sum in the window's ends.
WINDOW_SLACK = 1e-9


class ThetaWindow(NamedTuple):
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
    _require_primitive_nonprincipal(chi)
    c23, e, d_hi, d_lo = _sec2_terms(x, chi.q, chi.parity)[1]
    bracket = c23 - weighted_psi_sum(x, chi).real + e
    if d_lo <= 1e-12:  # d_lo = (1 - 1/sqrt(x))^2
        raise DegenerateWindowError(f"theta denominator can vanish at x={x}")
    ends = sorted((bracket / d_hi, bracket / d_lo))
    return ThetaWindow(ends[0], ends[1])


def log_l_residual(
    x: float,
    chi: DirichletCharacter,
    re_b_value: float,
    log_abs_l: float,
) -> ResidualReport:
    """Identity for log |L(1, chi)| = log_abs_l with combined theta envelope.

    The two theta terms (zero sum and trivial-zero tail) are merged:
    envelope = 2|Re B|/(sqrt(x) log^2 x) + 2/(x log^2 x).
    """
    if x < 2:
        raise ValueError("x >= 2 required")
    _require_primitive_nonprincipal(chi)
    lx, c25, den, tail = _sec2_terms(x, chi.q, chi.parity)[2]
    main = loglog_sum(x, chi).real + c25 - re_b_value / lx
    env = 2 * re_b_value / den + tail
    return ResidualReport("2.5", x, chi.q, chi.label, log_abs_l, main, env, (log_abs_l - main) / env)


def lemma_residual(lemma: str, x: float) -> ResidualReport:
    """The untwisted identity of checklist id 2.1 (cheb_log_sum, x > 1),
    2.4 (weighted_psi_sum, x > 1) or 2.6 (loglog_sum, x >= e), with the
    envelope 2|B| (sqrt(x) + 1), 2|B|/sqrt(x) or 2|B|/(sqrt(x) log^2 x)
    + 1/(3 x^3 log^2 x)."""
    lemma = str(lemma)
    if lemma not in ("2.1", "2.4", "2.6"):
        raise ValueError(f"unknown untwisted identity {lemma!r}")
    if lemma == "2.6" and x < math.e:
        raise ValueError("x >= e required")
    if x <= 1:
        raise ValueError("x > 1 required")
    b2 = 2 * abs(HADAMARD_B)
    if lemma == "2.1":
        lhs = cheb_log_sum(x)
        main = x - math.log(2 * math.pi) * math.log(x) - 1 + (math.pi**2 / 24 - tail_series(x, "square-even"))
        env = b2 * (math.sqrt(x) + 1)
    elif lemma == "2.4":
        lhs = weighted_psi_sum(x)
        main = math.log(x) - (1 + EULER_GAMMA) + math.log(2 * math.pi) / x - tail_series(x, "harmonic-odd")
        env = b2 / math.sqrt(x)
    else:
        lhs = loglog_sum(x)
        lx = math.log(x)
        main = math.log(lx) + EULER_GAMMA - 1 + EULER_GAMMA / lx
        env = b2 / (math.sqrt(x) * lx**2) + 1 / (3 * x**3 * lx**2)
    return ResidualReport(lemma, x, 0, None, lhs, main, env, (lhs - main) / env)


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
    lhs = character_sums(chi, _bins, ("pattern",), x)[0].real
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
    if not (math.isfinite(x) and x >= 100):
        raise ValueError(f"x = {x:g} must be a finite number >= 100")
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
