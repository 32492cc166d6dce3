"""Even analytic kernels, their Mellin transforms, and the bound constants.

A kernel K is even and holomorphic on a vertical strip with
|K(it)| <= decay/(1 + t^2); its Mellin transform
Ktilde(u) = (1/2 pi i) int K(s) u^s ds satisfies Ktilde(u) = Ktilde(1/u)
and is nonnegative.  Three derived numbers drive everything:

    line_l1(K)              (1/2 pi) int |K(it)| dt
    weighted_integral(K, l) int_0^l Ktilde(u) du / sqrt(u)
    K(1/2)

and the bound constant for a subgroup of index h is

    c = lambda * ((h - 1) line_l1 / (h W(lambda) - K(1/2)/2))^2,

the coefficient in X <= (c + o(1)) (log q)^2, with the h -> infinity
limit c = lambda (line_l1 / W)^2 available as a first-class input.

Two kernels are built in: the squared-sine family with parameter alpha
(Mellin transform max(0, 2 alpha - |log u|)) and the reflected-Gamma
kernel -(Gamma(s) + Gamma(-s)) (Mellin transform 1 - e^(-1/u) - e^(-u)).
A third kernel can be registered by constructing Kernel directly with a
line evaluator, closed-form Mellin transform, and decay certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import sici

from .lfunctions import EULER_GAMMA, complex_gamma

__all__ = [
    "BoundConstant",
    "Kernel",
    "NoFeasibleLambdaError",
    "NonpositiveDenominatorError",
    "QuadratureError",
    "alpha_table",
    "fejer_kernel",
    "gamma_kernel",
    "largeh_constant",
    "limit_constant",
    "line_l1",
    "mellin_numeric_check",
    "optimize_lambda",
    "prop62_constant",
    "weighted_integral",
]


class QuadratureError(ArithmeticError):
    """Requested quadrature tolerance could not be certified."""


class NonpositiveDenominatorError(ArithmeticError):
    """h W(lambda) - K(1/2)/2 <= 0; the bound is vacuous at this lambda."""


class NoFeasibleLambdaError(ArithmeticError):
    """No lambda in the bracket gives a positive denominator."""


@dataclass(frozen=True, eq=False)
class Kernel:
    """Even kernel with line evaluator and closed-form Mellin transform."""

    kind: str
    params: tuple
    at_half: float
    at_zero: float
    strip: float
    decay: float  # |K(it)| <= decay / (1 + t^2)
    line: Callable[[float], float]
    mellin: Callable[[float], float]
    mellin_breaks: tuple[float, ...] = ()

    @property
    def name(self) -> str:
        if self.params:
            inner = ";".join(f"{p:g}" for p in self.params)
            return f"{self.kind}({inner})"
        return self.kind

    def _key(self):
        return (self.kind, self.params)


def fejer_kernel(alpha: float) -> Kernel:
    """K(s) = ((e^(alpha s) - e^(-alpha s))/s)^2; K(it) = (2 sin(alpha t)/t)^2."""
    if not 0 < alpha < math.inf:  # also rejects nan
        raise ValueError("alpha must be positive and finite")

    def line(t: float) -> float:
        if t == 0.0:
            return 4 * alpha * alpha
        return (2 * math.sin(alpha * t) / t) ** 2

    def mellin(u: float) -> float:
        if u <= 0:
            raise ValueError("Mellin transform needs u > 0")
        return max(0.0, 2 * alpha - abs(math.log(u)))

    half = math.exp(alpha / 2) - math.exp(-alpha / 2)
    return Kernel(
        kind="fejer",
        params=(alpha,),
        at_half=4 * half * half,
        at_zero=4 * alpha * alpha,
        strip=1.0,
        decay=max(8.0, 8 * alpha * alpha),
        line=line,
        mellin=mellin,
        mellin_breaks=(math.exp(-2 * alpha), math.exp(2 * alpha)),
    )


def gamma_kernel() -> Kernel:
    """K(s) = -(Gamma(s) + Gamma(-s)); real on the line, K(i0) = 2 gamma."""

    def line(t: float) -> float:
        if t == 0.0:
            return 2 * EULER_GAMMA
        return -2.0 * complex_gamma(1j * t).real

    def mellin(u: float) -> float:
        if u <= 0:
            raise ValueError("Mellin transform needs u > 0")
        # 1 - e^(-1/u) - e^(-u), arranged to keep precision at both ends
        return -math.expm1(-1.0 / u) - math.exp(-u)

    at_half = -(complex_gamma(0.5) + complex_gamma(-0.5)).real
    return Kernel(
        kind="gamma",
        params=(),
        at_half=at_half,
        at_zero=2 * EULER_GAMMA,
        strip=0.4,
        decay=8.0,
        line=line,
        mellin=mellin,
    )


# ----------------------------------------------------------------------
# Line integrals
# ----------------------------------------------------------------------

_GAMMA_LINE_CUTOFF = 60.0  # beyond this |Gamma(it)| < 1e-40; tail is noise
_FEJER_LINE_CUTOFF = 100.0
_L1_TOL = 1e-9


def _cos_moment_tail(omega: float, t0: float) -> float:
    """int_t0^inf cos(omega t)/t^2 dt, exact via the sine integral."""
    omega = abs(omega)
    if omega == 0.0:
        return 1.0 / t0
    si = float(sici(omega * t0)[0])
    return math.cos(omega * t0) / t0 - omega * (math.pi / 2 - si)


def _gamma_line_breakpoints(kernel: Kernel, upper: float) -> list[float]:
    """Zeros of K(it) on (0, upper), located by sign changes plus brentq."""
    grid = np.linspace(0.0, upper, int(upper / 0.05) + 1)
    vals = np.array([kernel.line(float(t)) for t in grid])
    zeros = []
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            zeros.append(float(grid[i]))
        elif a * b < 0:
            zeros.append(float(brentq(lambda t: kernel.line(t), grid[i], grid[i + 1], xtol=1e-13)))
    return zeros


# Quadrature results, shared by every call with the same kernel kind and
# params (kernels that share both are taken to be the same kernel).  An
# entry is the (value, error estimate) pair a quadrature returned, so a
# caller still checks the error on every call.  Least recently used
# entries go first past the cap: one kernel's optimize_lambda sweep over
# several h stores about 300 entries.
_QUAD_CACHE_SIZE = 8192
_quad_cache: dict[tuple, tuple[float, float]] = {}


def _cached_quad(key: tuple, compute: Callable[[], tuple[float, float]]) -> tuple[float, float]:
    """compute()'s (value, error) pair, computed once while key stays cached."""
    out = _quad_cache.pop(key, None)
    if out is None:
        out = compute()
        if len(_quad_cache) >= _QUAD_CACHE_SIZE:
            del _quad_cache[next(iter(_quad_cache))]
    _quad_cache[key] = out  # (re)inserted last: most recently used
    return out


def line_l1(kernel: Kernel) -> float:
    """(1/2 pi) int_R |K(it)| dt with certified truncation error <= 1e-9.

    The integrand's inner function changes sign for the reflected-Gamma
    kernel, so the integral is split at its zeros; the squared-sine
    kernel is nonnegative and gets an exact sine-integral tail.

    The value and its error budget are cached under ("l1", kind, params)
    in the module's quadrature cache (at most _QUAD_CACHE_SIZE entries,
    least recently used dropped first); the error check runs on every
    call, cached or not.
    """
    total, err_budget = _cached_quad(("l1", kernel._key()), lambda: _line_l1_quadrature(kernel))
    if err_budget > _L1_TOL:
        raise QuadratureError(f"line L1 error {err_budget:g} exceeds {_L1_TOL:g}")
    return total


def _line_l1_quadrature(kernel: Kernel) -> tuple[float, float]:
    """line_l1's value and its error budget, before the error check."""
    err_budget = 0.0
    if kernel.kind == "fejer":
        (alpha,) = kernel.params
        omega = 2 * alpha
        t1 = _FEJER_LINE_CUTOFF

        def integrand(t: float) -> float:
            if t == 0.0:
                return omega * omega / 2
            return (1 - math.cos(omega * t)) / (t * t)

        pieces = []
        step = math.pi / omega
        edges = [0.0]
        while edges[-1] < t1:
            edges.append(min(edges[-1] + 8 * step, t1))
        for a, b in zip(edges, edges[1:]):
            val, err = quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
            pieces.append(val)
            err_budget += err
        tail = 1.0 / t1 - _cos_moment_tail(omega, t1)
        total = (2 / math.pi) * (math.fsum(pieces) + tail)
    elif kernel.kind == "gamma":
        t1 = _GAMMA_LINE_CUTOFF
        edges = [0.0] + _gamma_line_breakpoints(kernel, t1) + [t1]
        pieces = []
        for a, b in zip(edges, edges[1:]):
            val, err = quad(kernel.line, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
            pieces.append(abs(val))
            err_budget += err
        # |Gamma(it)|^2 = pi/(t sinh(pi t)): the remaining mass past 60 is
        # below 1e-40, absorbed into the error budget.
        err_budget += 1e-40
        total = (1 / math.pi) * math.fsum(pieces)
    else:
        # Generic route: nonnegative assumption not available, integrate |K|.
        t1 = 2000.0
        val, err = quad(lambda t: abs(kernel.line(t)), 0.0, t1, epsabs=1e-11, limit=2000)
        err_budget += err + kernel.decay / t1 / math.pi
        total = (1 / math.pi) * val
    return total, err_budget


def mellin_numeric_check(kernel: Kernel, u: float) -> float:
    """Ktilde(u) recomputed as a contour integral on Re s = 0.

    (1/pi) int_0^inf K(it) cos(t log u) dt, with exact sine-integral
    tails for the squared-sine kernel; agreement with the closed form to
    1e-6 is the tested contract.
    """
    if u <= 0:
        raise ValueError("u must be positive")
    beta = math.log(u)
    if kernel.kind == "fejer":
        (alpha,) = kernel.params
        t1 = _FEJER_LINE_CUTOFF
        omegas = ((2.0, beta), (-1.0, 2 * alpha + beta), (-1.0, 2 * alpha - beta))

        def integrand(t: float) -> float:
            if t == 0.0:
                return 4 * alpha * alpha  # t -> 0 limit, equals K(i0)
            acc = 0.0
            for coef, w in omegas:
                acc += coef * math.cos(w * t)
            return acc / (t * t)

        pieces = []
        max_w = max(abs(w) for _, w in omegas if w != 0) or 1.0
        step = 8 * math.pi / max_w
        edges = [0.0]
        while edges[-1] < t1:
            edges.append(min(edges[-1] + step, t1))
        err_budget = 0.0
        for a, b in zip(edges, edges[1:]):
            val, err = quad(integrand, a, b, epsabs=1e-11, epsrel=1e-10, limit=200)
            pieces.append(val)
            err_budget += err
        tail = math.fsum(coef * _cos_moment_tail(w, t1) for coef, w in omegas)
        if err_budget > 1e-8:
            raise QuadratureError(f"Mellin check error {err_budget:g}")
        return (math.fsum(pieces) + tail) / math.pi

    t1 = _GAMMA_LINE_CUTOFF if kernel.kind == "gamma" else 500.0

    def integrand(t: float) -> float:
        return kernel.line(t) * math.cos(beta * t)

    pts = None
    if abs(beta) > 0.5:
        period = 2 * math.pi / abs(beta)
        pts = list(np.arange(period, t1, period))[:90]
    val, err = quad(integrand, 0.0, t1, epsabs=1e-11, epsrel=1e-10, limit=400, points=pts)
    if err > 1e-8:
        raise QuadratureError(f"Mellin check error {err:g}")
    return val / math.pi


def weighted_integral(kernel: Kernel, lam: float) -> float:
    """W(lambda) = int_0^lambda Ktilde(u) du/sqrt(u); lambda = inf allowed.

    The piece beyond u = 1 is folded back with Ktilde(u) = Ktilde(1/u) and
    the substitution u = 1/w^2, which removes the endpoint singularity.

    Each piece's quadrature (value, error estimate) is cached in the
    module's quadrature cache (at most _QUAD_CACHE_SIZE entries, least
    recently used dropped first), keyed by the kernel's kind and params
    and the piece's moving endpoint: min(lambda, 1) for the piece on
    (0, min(lambda, 1)], 1/sqrt(lambda) (0 at lambda = inf) for the folded
    piece on (1/sqrt(lambda), 1].  So every lambda >= 1 shares the costly
    low piece, and a lambda seen before costs no quadrature.  Every call
    adds the same pieces in the same order and checks their error budget,
    cached or not, so a cached result is the same float.
    """
    if not lam > 0:  # also rejects nan
        raise ValueError("lambda must be positive")
    key = kernel._key()
    upper1 = min(lam, 1.0)
    pieces = [_cached_quad(("low", key, upper1), lambda: _low_piece(kernel, upper1))]
    if lam > 1.0:
        w_lo = 0.0 if math.isinf(lam) else 1.0 / math.sqrt(lam)
        pieces.append(_cached_quad(("folded", key, w_lo), lambda: _folded_piece(kernel, w_lo)))

    err_budget = 0.0
    total = 0.0
    for val, err in pieces:
        total += val
        err_budget += err
    if err_budget > 1e-10:
        raise QuadratureError(f"weighted integral error {err_budget:g}")
    return total


def _low_piece(kernel: Kernel, upper: float) -> tuple[float, float]:
    """quad's (value, error) for int_0^upper Ktilde(u) du/sqrt(u), upper <= 1."""
    pts = [b for b in kernel.mellin_breaks if 0 < b < upper] or None

    def f_low(u: float) -> float:
        if u <= 0.0:
            return 0.0  # Ktilde(u)/sqrt(u) extended continuously at u = 0
        return kernel.mellin(u) / math.sqrt(u)

    return quad(f_low, 0.0, upper, epsabs=1e-13, epsrel=1e-12, limit=400, points=pts)


def _folded_piece(kernel: Kernel, w_lo: float) -> tuple[float, float]:
    """quad's (value, error) for int_1^(1/w_lo^2) Ktilde(u) du/sqrt(u), folded to w in (w_lo, 1]."""
    pts = [math.sqrt(b) for b in kernel.mellin_breaks if w_lo < math.sqrt(b) < 1.0] or None

    def f_high(w: float) -> float:
        if w <= 0.0:
            return 0.0
        return 2.0 * kernel.mellin(w * w) / (w * w)

    return quad(f_high, w_lo, 1.0, epsabs=1e-13, epsrel=1e-12, limit=400, points=pts)


# ----------------------------------------------------------------------
# Bound constants
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BoundConstant:
    h: float  # index, math.inf allowed
    lam: float
    kernel: str
    c: float
    denominator: float


def prop62_constant(kernel: Kernel, lam: float, h) -> BoundConstant:
    """Constant c with X <= (c + o(1)) (log q)^2 for index h at this lambda.

    c = lambda ((h-1) L1 / (h W - K(1/2)/2))^2; at h = infinity the ratio
    (h-1)/h collapses and c = lambda (L1/W)^2.
    """
    l1 = line_l1(kernel)
    w = weighted_integral(kernel, lam)
    if math.isinf(h):
        denom = w
        if denom <= 0:
            raise NonpositiveDenominatorError("W(lambda) <= 0")
        c = lam * (l1 / w) ** 2
    else:
        if h < 2:
            raise ValueError("index h must be at least 2")
        denom = h * w - kernel.at_half / 2
        if denom <= 0:
            raise NonpositiveDenominatorError(
                f"h W(lambda) - K(1/2)/2 = {denom:g} <= 0 at lambda={lam:g}"
            )
        c = lam * ((h - 1) * l1 / denom) ** 2
    return BoundConstant(h=float(h), lam=lam, kernel=kernel.name, c=c, denominator=denom)


def optimize_lambda(
    kernel: Kernel,
    h,
    lo: float = 1.0,
    hi: float = 20.0,
    grid: int = 200,
    tol: float = 1e-3,
) -> tuple[float, float]:
    """Grid bracketing plus golden-section refinement of c(lambda).

    Unimodality over the feasible region is assumed (observed throughout);
    the coarse grid guards against bracketing a local valley.

    Each c(lambda) reads line_l1 and the pieces of W(lambda) from the
    module's quadrature cache (see weighted_integral), so a second h on
    the same kernel and grid reruns only the golden-section steps' folded
    pieces; every read still checks its quadrature error budget.
    """

    def c_of(lam: float) -> float:
        try:
            return prop62_constant(kernel, lam, h).c
        except NonpositiveDenominatorError:
            return math.inf

    lams = np.linspace(lo, hi, grid)
    costs = [c_of(float(l)) for l in lams]
    best = int(np.argmin(costs))
    if math.isinf(costs[best]):
        raise NoFeasibleLambdaError(f"no feasible lambda in [{lo}, {hi}]")
    a = float(lams[max(0, best - 1)])
    b = float(lams[min(grid - 1, best + 1)])

    invphi = (math.sqrt(5) - 1) / 2
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = c_of(x1), c_of(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = c_of(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = c_of(x2)
    lam_star = (a + b) / 2
    return lam_star, c_of(lam_star)


def limit_constant(h) -> float:
    """Floor ((h-1)/(2h-1))^2 that no kernel choice can beat; 1/4 at infinity."""
    if math.isinf(h):
        return 0.25
    if h < 2:
        raise ValueError("index h must be at least 2")
    return ((h - 1) / (2 * h - 1)) ** 2


def largeh_constant(h: float) -> float:
    """Large-index closed form (1/4)(1 - 1/h)^2 (log 2h / (log 2h - 2))^2; 1/4 at infinity."""
    if math.isinf(h):
        return 0.25
    if h < 4:
        raise ValueError("closed form applies for h >= 4")
    l2h = math.log(2 * h)
    if l2h <= 2:
        raise ValueError("log(2h) must exceed 2")
    return 0.25 * (1 - 1 / h) ** 2 * (l2h / (l2h - 2)) ** 2


def alpha_table(h) -> float:
    """Headline constants: 0.42 at h = 2, 0.49 at h = 3, 0.51 past that."""
    if not math.isinf(h) and h < 2:
        raise ValueError("index h must be at least 2")
    if h == 2:
        return 0.42
    if h == 3:
        return 0.49
    return 0.51
