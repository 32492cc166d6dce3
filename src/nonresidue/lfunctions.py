"""Special functions and L-values at the edge of the critical strip.

Contents, all double precision with stated error targets:

* the two Laurent coefficients of Hurwitz zeta(s, a/q) at s = 1, by
  Euler-Maclaurin (shift N = 30, Bernoulli depth M = 12), which the
  L(1, chi) and L'(1, chi) evaluations need after the character sum
  kills the pole;
* L(1, chi) by three routes: the Hurwitz route, the finite character-sum
  formula for real odd characters, and a tail-corrected Dirichlet
  series used only as an independent oracle;
* the Hadamard real-part constant |Re B(chi)| recovered from
  L'/L(1, chi);
* class numbers h(-q) by reduced-form counting and by Dirichlet's finite
  form of the class number formula, both exact integers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import DLOG_CEILING, ModulusTooLargeError
from .characters import (
    DirichletCharacter,
    character_sums,
    is_fundamental_discriminant,
    kronecker_character_table,
)

__all__ = [
    "EULER_GAMMA",
    "HADAMARD_B",
    "LValueResult",
    "NotFundamentalError",
    "PrincipalCharacterError",
    "class_number_bqf",
    "class_number_via_formula",
    "l_and_lprime_at_1",
    "l_at_1",
    "re_b",
]

EULER_GAMMA = 0.5772156649015328606
HADAMARD_B = 0.5 * math.log(4 * math.pi) - 1.0 - EULER_GAMMA / 2  # -0.0230957...

# B_2, B_4, ..., B_26 as exact ratios.
_BERNOULLI = (
    1 / 6,
    -1 / 30,
    1 / 42,
    -1 / 30,
    5 / 66,
    -691 / 2730,
    7 / 6,
    -3617 / 510,
    43867 / 798,
    -174611 / 330,
    854513 / 138,
    -236364091 / 2730,
    8553103 / 6,
)


class PrincipalCharacterError(ValueError):
    """Operation requires a non-principal character."""


class NotFundamentalError(ValueError):
    """-q is not a fundamental discriminant."""


PSI_AT_1 = -EULER_GAMMA  # psi_0(1)
PSI_AT_HALF = -2 * math.log(2) - EULER_GAMMA  # psi_0(1/2)


# ----------------------------------------------------------------------
# Hurwitz zeta Laurent data at s = 1, by Euler-Maclaurin
# ----------------------------------------------------------------------

_EM_SHIFT = 30
_EM_DEPTH = 12


# Four entries: every block of a modulus reads the same one, callers take one
# modulus at a time, and each entry holds 16 q bytes.
@lru_cache(maxsize=4)
def hurwitz_laurent_pair(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Laurent data of zeta(s, a/q) at s = 1 for a = 1..q.

    Returns (c0, c1) with zeta(s, a) = 1/(s-1) + c0(a) + c1(a)(s-1) + ...
    (c0(a) = -psi_0(a)).  Arrays are cached; do not mutate.
    """
    a = np.arange(1, q + 1, dtype=float) / q
    n_shift = _EM_SHIFT
    k = np.arange(n_shift, dtype=float)[:, None]
    base = k + a[None, :]
    big = n_shift + a
    log_big = np.log(big)

    c0 = (1.0 / base).sum(axis=0) - log_big + 0.5 / big
    c1 = -(np.log(base) / base).sum(axis=0) + 0.5 * log_big**2 - log_big / (2 * big)

    harmonic = 0.0
    inv = 1.0 / (big * big)
    power = np.ones_like(big)
    for j in range(1, _EM_DEPTH + 1):
        two_j = 2 * j
        harmonic += 1.0 / (two_j - 1) + (1.0 / (two_j - 2) if two_j > 2 else 0.0)
        power = power * inv
        coeff = _BERNOULLI[j - 1] / two_j
        c0 += coeff * power
        c1 += coeff * power * (harmonic - log_big)
    return c0, c1


# ----------------------------------------------------------------------
# Dirichlet L-values at s = 1
# ----------------------------------------------------------------------

HURWITZ_METHOD = "hurwitz-euler-maclaurin"
FINITE_METHOD = "finite-gauss-formula"
SERIES_METHOD = "dirichlet-series"


class LValueResult(NamedTuple):
    char: str
    value: complex
    method: str
    est_error: float


def _require_primitive_nonprincipal(chi: DirichletCharacter) -> None:
    if chi.is_principal:
        raise PrincipalCharacterError("principal character not allowed here")
    if not chi.is_primitive:
        raise ValueError(f"character {chi.label} is not primitive mod {chi.q}")


def _laurent_columns(q: int) -> np.ndarray:
    """Row r holds (c0, c1) of zeta(s, r/q) for r = 1..q-1, shape (q, 2);
    row 0 stays zero, since chi(0) = 0 drops a = q."""
    c0, c1 = hurwitz_laurent_pair(q)
    cols = np.zeros((q, 2))
    cols[1:, 0], cols[1:, 1] = c0[:-1], c1[:-1]
    return cols


def l_and_lprime_at_1(chi: DirichletCharacter) -> tuple[complex, complex]:
    """(L(1, chi), L'(1, chi)) through the Laurent data at s = 1.

    The character sum annihilates the Hurwitz poles, leaving
    L(1) = (1/q) sum chi(a) c0(a/q) and
    L'(1) = (1/q) sum chi(a) c1(a/q) - log(q) L(1).
    characters.character_sums reads both sums off the Laurent columns;
    chi builds no table of its own.
    """
    _require_primitive_nonprincipal(chi)
    s0, s1 = character_sums(chi, _laurent_columns)
    l1 = s0 / chi.q
    return l1, s1 / chi.q - math.log(chi.q) * l1


def _finite_class_sum(q: int) -> tuple[int, int]:
    """(sum_{0 < a < q/2} chi(a), chi(2)) for chi = chi_{-q}, -q fundamental
    and q > 4, read from the Kronecker table and summed in int64."""
    tab = kronecker_character_table(q)
    return int(tab[1 : (q + 1) // 2].sum(dtype=np.int64)), int(tab[2])


def _l1_finite_real_odd(chi: DirichletCharacter) -> float:
    """L(1, chi) for real odd primitive chi, q > 4, by the finite sum
    pi * sum_{0 < a < q/2} chi(a) / ((2 - chi(2)) sqrt(q)).  Such a chi is
    chi_{-q}, so the sum is the class-number one."""
    q = chi.q
    if not (chi.is_real and chi.parity == 1 and q > 4):
        raise ValueError("finite formula needs a real odd primitive character, q > 4")
    total, chi2 = _finite_class_sum(q)
    return math.pi * total / ((2 - chi2) * math.sqrt(q))


@lru_cache(maxsize=16)
def _series_weights(q: int) -> tuple[np.ndarray, int]:
    """(W, blocks) with the tail-corrected sum chi(n)/n = dot(chi(1..q), W).

    Terms are grouped in blocks of q; the block function g(k) decays like
    k^(-2), and the truncated tail is restored by Euler-Maclaurin in the
    block index.  Every piece is linear in the character's values, so W_j
    holds the head 1/j, the blocks sum_k 1/(kq + j) and the three tail
    terms at the edge.  The blocks are summed 64 at a time, so the
    temporaries are q x 64, not q x blocks.  Cached; do not mutate.
    """
    j = np.arange(1, q + 1, dtype=float)
    blocks = max(600, 300_000 // q)
    k = np.arange(1, blocks + 1, dtype=float)
    parts = [(1.0 / (j[:, None] + q * ks)).sum(axis=1) for ks in np.split(k, range(64, blocks, 64))]
    body = np.stack(parts, axis=1).sum(axis=1)  # pairwise along rows
    edge = (blocks + 1) * q + j
    tail = -np.log(edge) / q + 0.5 / edge + q / (12.0 * edge**2)
    return 1.0 / j + body + tail, blocks


def _l1_dirichlet_series(chi: DirichletCharacter) -> tuple[complex, float]:
    """Tail-corrected partial sum of sum chi(n)/n; independent oracle."""
    q = chi.q
    weights, blocks = _series_weights(q)
    vals = np.roll(chi.complex_table, -1)  # chi(1..q), chi(q) = chi(0) = 0
    # next Euler-Maclaurin term is ~ g'''(edge)/720
    est = 6 * q**3 * float(np.abs(vals).sum()) / ((blocks + 1.0) * q) ** 4 / 720 + 1e-14
    return complex(np.dot(vals, weights)), est


def l_at_1(chi: DirichletCharacter, method: str = HURWITZ_METHOD) -> LValueResult:
    """L(1, chi) for primitive non-principal chi by the chosen route."""
    _require_primitive_nonprincipal(chi)
    if method == HURWITZ_METHOD:
        value, _ = l_and_lprime_at_1(chi)
        return LValueResult(chi.label, value, method, 1e-12 * (1 + math.log(chi.q)))
    if method == FINITE_METHOD:
        return LValueResult(chi.label, complex(_l1_finite_real_odd(chi)), method, 1e-13)
    if method == SERIES_METHOD:
        value, est = _l1_dirichlet_series(chi)
        return LValueResult(chi.label, value, method, est)
    raise ValueError(f"unknown method {method!r}")


def re_b(chi: DirichletCharacter) -> float:
    """|Re B(chi)| for primitive non-principal chi.

    Recovered from the completed-L logarithmic derivative at 1:
    |Re B| = log(q/pi)/2 + psi_0((1 + parity)/2)/2 + Re L'/L(1, chi).
    Positive whenever the zeros lie on the critical line, so a negative
    return value signals an implementation problem, not new mathematics.
    """
    l1, lp = l_and_lprime_at_1(chi)  # raises unless chi is primitive and non-principal
    psi_term = PSI_AT_1 if chi.parity == 1 else PSI_AT_HALF
    return 0.5 * math.log(chi.q / math.pi) + 0.5 * psi_term + (lp / l1).real


# ----------------------------------------------------------------------
# Class numbers of imaginary quadratic fields
# ----------------------------------------------------------------------


def _check_class_q(q: int) -> None:
    """-q fundamental below -4 and q <= DLOG_CEILING, before either route's O(q) arrays."""
    if q <= 4 or not is_fundamental_discriminant(q):
        raise NotFundamentalError(f"-{q} is not a fundamental discriminant below -4")
    if q > DLOG_CEILING:
        raise ModulusTooLargeError(f"q={q} exceeds the ceiling {DLOG_CEILING} of O(q) class-number arrays")


def class_number_bqf(q: int) -> int:
    """h(-q) by counting reduced forms (a, b, c), b^2 - 4ac = -q.

    Reduced means |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    One int64 grid of n = (b^2 + q)/4 = ac holds every b >= 0 with
    b = q (mod 2) and 3b^2 <= q as a column and every a with a^2 <= max n
    as a row; a form on the edge (b = 0, a = b or a = c) counts once and
    every other twice, for b and -b.  About q/6 cells, no factorization.
    Exact integer; serves as the oracle for the class-formula route.
    """
    _check_class_q(q)
    b = np.arange(q % 2, math.isqrt(q // 3) + 1, 2, dtype=np.int64)
    n = (b * b + q) // 4
    a = np.arange(1, math.isqrt(int(n[-1])) + 1, dtype=np.int64)[:, None]
    c, r = np.divmod(n, a)
    forms = (r == 0) & (a >= b) & (a <= c)  # a >= 1 = max(b, 1) when b = 0
    edge = forms & ((b == 0) | (a == b) | (a == c))
    return int(2 * np.count_nonzero(forms) - np.count_nonzero(edge))


def class_number_via_formula(q: int) -> int:
    """h(-q) = sum_{0 < a < q/2} chi(a) / (2 - chi(2)), chi = chi_{-q}.

    Dirichlet's finite form of h(-q) = (sqrt(q)/pi) L(1, chi_{-q}) for a
    fundamental -q < -4 (Davenport, Multiplicative Number Theory, ch. 6):
    an exact integer, read from the Kronecker character table so scans
    stay free of unit-group tables.  A remainder is a fault, not rounding.
    """
    _check_class_q(q)
    total, chi2 = _finite_class_sum(q)
    h, rem = divmod(total, 2 - chi2)
    if rem:
        raise ArithmeticError(f"sum {total} for q={q} is not a multiple of 2 - chi(2) = {2 - chi2}")
    return h
