"""Even analytic kernels, their Mellin transforms, and the bound constants.

A kernel K is even and holomorphic on a vertical strip with
|K(it)| = O(1/(1 + t^2)); its Mellin transform
Ktilde(u) = (1/2 pi i) int K(s) u^s ds satisfies Ktilde(u) = Ktilde(1/u)
and is nonnegative.  Three derived numbers drive everything:

    line_l1(K)              (1/2 pi) int |K(it)| dt
    weighted_integral(K, l) int_0^l Ktilde(u) du / sqrt(u), in closed form
    K(1/2)

and the bound constant for a subgroup of index h is

    c = lambda * ((h - 1) line_l1 / (h W(lambda) - K(1/2)/2))^2,

the coefficient in X <= (c + o(1)) (log q)^2, with the h -> infinity
limit c = lambda (line_l1 / W)^2 available as a first-class input.

Two kernels are built in: the squared-sine family with parameter alpha
(Mellin transform max(0, 2 alpha - |log u|)) and the reflected-Gamma
kernel -(Gamma(s) + Gamma(-s)) (Mellin transform 1 - e^(-1/u) - e^(-u)).
Both Mellin transforms are elementary, so each kernel carries W(lambda)
as one numpy expression, exact up to rounding, that takes a float or an
array of lambdas.  The squared-sine kernel is nonnegative on the line,
so its line_l1 is Ktilde(1) = 2 alpha.  Only the reflected-Gamma
kernel's line_l1 (computed once, then cached) and the Mellin cross-check
use quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .lfunctions import EULER_GAMMA

__all__ = [
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


_KINDS = ("fejer", "gamma")
_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class Kernel:
    """Even kernel with line evaluator, closed-form Mellin transform and
    closed-form W(lambda) (`weighted`, numpy in and out).

    Kernels with the same kind and params compare equal, so every
    reflected-Gamma kernel shares line_l1's one quadrature; the
    squared-sine kernel's line_l1 is 2 alpha, with no quadrature.
    """

    kind: str
    params: tuple
    at_half: float = field(compare=False)
    line: Callable[[float], float] = field(compare=False)
    mellin: Callable[[float], float] = field(compare=False)
    weighted: Callable[[np.ndarray], np.ndarray] = field(compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {_KINDS}")

    @property
    def name(self) -> str:
        if self.params:
            inner = ";".join(f"{p:g}" for p in self.params)
            return f"{self.kind}({inner})"
        return self.kind


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

    # With v = log u, W = int_{-2 alpha}^t (2 alpha - |v|) e^(v/2) dv for
    # t = min(log lam, 2 alpha).  The antiderivative is 2 e^(v/2)(2 alpha + v - 2)
    # on [-2 alpha, 0], where it starts at -4 e^(-alpha), and
    # 2 e^(v/2)(2 alpha - v + 2) on [0, 2 alpha], 8 above the first at v = 0.
    start = -4 * math.exp(-alpha)

    def weighted(lam: np.ndarray) -> np.ndarray:
        t = np.minimum(np.log(lam), 2 * alpha)
        root = 2 * np.exp(t / 2)
        below = root * (2 * alpha + t - 2) - start
        above = root * (2 * alpha - t + 2) - 8 - start
        return np.where(t <= -2 * alpha, 0.0, np.where(t <= 0, below, above))

    half = math.exp(alpha / 2) - math.exp(-alpha / 2)
    return Kernel(
        kind="fejer",
        params=(alpha,),
        at_half=4 * half * half,
        line=line,
        mellin=mellin,
        weighted=weighted,
    )


def gamma_kernel() -> Kernel:
    """K(s) = -(Gamma(s) + Gamma(-s)); real on the line, K(i0) = 2 gamma,
    and K(1/2) = -(sqrt(pi) - 2 sqrt(pi)) = sqrt(pi)."""
    from scipy.special import erf, erfc, gamma, gammainc

    def line(t: float) -> float:
        if t == 0.0:
            return 2 * EULER_GAMMA
        return float(-2.0 * gamma(1j * t).real)

    def mellin(u: float) -> float:
        if u <= 0:
            raise ValueError("Mellin transform needs u > 0")
        # 1 - e^(-1/u) - e^(-u), arranged to keep precision at both ends
        return -math.expm1(-1.0 / u) - math.exp(-u)

    def weighted(lam: np.ndarray) -> np.ndarray:
        # W = 2 sqrt(lam) - gamma(1/2, lam) - Gamma(-1/2, 1/lam), where
        # Gamma(-1/2, x) = 2 x^(-1/2) e^(-x) - 2 sqrt(pi) erfc(sqrt(x)).  Below
        # lam = 1, gamma(1/2, lam) = 2 gamma(3/2, lam) + 2 sqrt(lam) e^(-lam)
        # avoids the cancellation of 2 sqrt(lam) against sqrt(pi) erf(sqrt(lam)).
        root = np.sqrt(lam)
        with np.errstate(invalid="ignore"):  # inf * 0 at lam = inf, replaced below
            high = -2 * root * np.expm1(-1 / lam) - _SQRT_PI * erf(root)
            low = -2 * root * (np.expm1(-lam) + np.exp(-1 / lam)) - _SQRT_PI * gammainc(1.5, lam)
        w = np.where(lam >= 1, high, low) + 2 * _SQRT_PI * erfc(1 / root)
        return np.where(np.isinf(lam), _SQRT_PI, w)

    return Kernel(
        kind="gamma",
        params=(),
        at_half=_SQRT_PI,
        line=line,
        mellin=mellin,
        weighted=weighted,
    )


# ----------------------------------------------------------------------
# Line integrals
# ----------------------------------------------------------------------

_GAMMA_LINE_CUTOFF = 60.0  # beyond this |Gamma(it)| < 1e-40; tail is noise
_FEJER_LINE_CUTOFF = 100.0
_L1_TOL = 1e-9


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported when called so that importing this
    module loads no scipy; every quadrature here goes through this name."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _cos_moment_tail(omega: float, t0: float) -> float:
    """int_t0^inf cos(omega t)/t^2 dt, exact via the sine integral."""
    omega = abs(omega)
    if omega == 0.0:
        return 1.0 / t0
    from scipy.special import sici

    si = float(sici(omega * t0)[0])
    return math.cos(omega * t0) / t0 - omega * (math.pi / 2 - si)


def _gamma_line_breakpoints(kernel: Kernel, upper: float) -> list[float]:
    """Zeros of K(it) on (0, upper), located by sign changes plus brentq."""
    from scipy.optimize import brentq

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


def line_l1(kernel: Kernel) -> float:
    """(1/2 pi) int_R |K(it)| dt.

    The squared-sine kernel is nonnegative on the line, so this is its
    Mellin transform at u = 1, exactly 2 alpha.  The reflected-Gamma
    kernel's has no closed form: its quadrature, split at the zeros of
    K(it), is cached, and its certified error (<= 1e-9) is checked on
    every call.
    """
    if kernel.kind == "fejer":
        (alpha,) = kernel.params
        return 2.0 * alpha
    total, err_budget = _gamma_line_l1_quadrature(kernel)
    if err_budget > _L1_TOL:
        raise QuadratureError(f"line L1 error {err_budget:g} exceeds {_L1_TOL:g}")
    return total


def _piecewise_quad(f: Callable[[float], float], edges, epsabs: float, epsrel: float) -> tuple[list[float], float]:
    """quad of f over each span between consecutive edges: the values,
    and the sum of their error estimates."""
    pieces = []
    err_budget = 0.0
    for a, b in zip(edges, edges[1:]):
        val, err = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=200)
        pieces.append(val)
        err_budget += err
    return pieces, err_budget


@cache
def _gamma_line_l1_quadrature(kernel: Kernel) -> tuple[float, float]:
    """The reflected-Gamma kernel's line_l1 and its error budget, before
    the error check."""
    t1 = _GAMMA_LINE_CUTOFF
    edges = [0.0] + _gamma_line_breakpoints(kernel, t1) + [t1]
    pieces, err_budget = _piecewise_quad(kernel.line, edges, epsabs=1e-13, epsrel=1e-12)
    # |Gamma(it)|^2 = pi/(t sinh(pi t)): the remaining mass past 60 is
    # below 1e-40, absorbed into the error budget.
    return (1 / math.pi) * math.fsum(abs(p) for p in pieces), err_budget + 1e-40


def mellin_numeric_check(kernel: Kernel, u: float) -> float:
    """Ktilde(u) recomputed as a contour integral on Re s = 0.

    (1/pi) int_0^inf K(it) cos(t log u) dt, one quadrature of the
    kernel's `line` for both kernels, in pieces four periods of the
    fastest oscillation wide up to the line cutoff.  The squared-sine
    kernel adds its exact sine-integral tail past the cutoff; the
    reflected-Gamma kernel's mass there is below 1e-40.  Agreement with
    the closed form to 1e-6 is the tested contract.
    """
    if not 0 < u < math.inf:
        raise ValueError(f"u must be finite and positive, not {u!r}")
    beta = math.log(u)
    if kernel.kind == "fejer":
        (alpha,) = kernel.params
        t1, fastest = _FEJER_LINE_CUTOFF, 2 * alpha + abs(beta)
        # past t1, K(it) cos(beta t) = (2 cos(beta t) - cos((2 alpha + beta) t) - cos((2 alpha - beta) t)) / t^2
        omegas = ((2.0, beta), (-1.0, 2 * alpha + beta), (-1.0, 2 * alpha - beta))
        tail = math.fsum(coef * _cos_moment_tail(w, t1) for coef, w in omegas)
    else:
        t1, fastest, tail = _GAMMA_LINE_CUTOFF, max(abs(beta), 1.0), 0.0
    step = 8 * math.pi / fastest
    edges = [min(k * step, t1) for k in range(math.ceil(t1 / step) + 1)]
    pieces, err_budget = _piecewise_quad(lambda t: kernel.line(t) * math.cos(beta * t), edges, epsabs=1e-11, epsrel=1e-10)
    if err_budget > 1e-8:
        raise QuadratureError(f"Mellin check error {err_budget:g}")
    return (math.fsum(pieces) + tail) / math.pi


def weighted_integral(kernel: Kernel, lam):
    """W(lambda) = int_0^lambda Ktilde(u) du/sqrt(u); lambda = inf allowed.

    Evaluated from the kernel's closed form (see fejer_kernel and
    gamma_kernel) with no quadrature and no cache: a float lambda gives a
    float, an array of lambdas gives W at each in one numpy pass.
    """
    lam = np.asarray(lam, dtype=float)
    if not (lam > 0).all():  # also rejects nan
        raise ValueError("lambda must be positive")
    w = kernel.weighted(lam)
    return float(w) if w.ndim == 0 else w


# ----------------------------------------------------------------------
# Bound constants
# ----------------------------------------------------------------------


def _constant(kernel: Kernel, lam, w, h):
    """(c, denominator) at lam with W(lam) = w, floats or arrays alike:
    c = lam (num / denom)^2 with num = (h-1) L1, denom = h W - K(1/2)/2, or
    num = L1, denom = W at h = infinity, where (h-1)/h collapses.  c is
    inf where denom <= 0."""
    if not math.isinf(h) and h < 2:
        raise ValueError("index h must be at least 2")
    l1 = line_l1(kernel)
    if math.isinf(h):
        num, denom = l1, w
    else:
        num, denom = (h - 1) * l1, h * w - kernel.at_half / 2
    with np.errstate(divide="ignore"):
        return lam * np.square(num / np.maximum(denom, 0.0)), denom


def prop62_constant(kernel: Kernel, lam: float, h) -> float:
    """Constant c with X <= (c + o(1)) (log q)^2 for index h at this lambda.

    c = lambda ((h-1) L1 / (h W - K(1/2)/2))^2; at h = infinity the ratio
    (h-1)/h collapses and c = lambda (L1/W)^2.
    """
    c, denom = _constant(kernel, lam, weighted_integral(kernel, lam), h)
    if denom <= 0:
        raise NonpositiveDenominatorError(f"denominator {denom:g} <= 0 at lambda={lam:g}, h={h}")
    return float(c)


# optimize_lambda searches lambda in [_LAMBDA_LO, _LAMBDA_HI] on a grid of
# _LAMBDA_GRID points, then by golden section down to a bracket _LAMBDA_TOL wide.
_LAMBDA_LO, _LAMBDA_HI, _LAMBDA_GRID, _LAMBDA_TOL = 1.0, 20.0, 200, 1e-3


def optimize_lambda(kernel: Kernel, h) -> tuple[float, float]:
    """Grid bracketing plus golden-section refinement of c(lambda).

    Unimodality over the feasible region is assumed (observed throughout);
    the coarse grid guards against bracketing a local valley.

    c_of takes the whole grid as one array and each golden-section step
    as one float lambda; an infeasible lambda costs inf.
    """

    def c_of(lam):
        return _constant(kernel, lam, weighted_integral(kernel, lam), h)[0]

    lams = np.linspace(_LAMBDA_LO, _LAMBDA_HI, _LAMBDA_GRID)
    costs = c_of(lams)
    best = int(np.argmin(costs))
    if math.isinf(costs[best]):
        raise NoFeasibleLambdaError(f"no feasible lambda in [{_LAMBDA_LO}, {_LAMBDA_HI}]")
    a = float(lams[max(0, best - 1)])
    b = float(lams[min(_LAMBDA_GRID - 1, best + 1)])

    invphi = (math.sqrt(5) - 1) / 2
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = c_of(x1), c_of(x2)
    while b - a > _LAMBDA_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = c_of(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = c_of(x2)
    lam_star = (a + b) / 2
    return lam_star, float(c_of(lam_star))


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
