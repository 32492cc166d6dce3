"""Explicit bound formulas and search-vs-bound verification.

Every formula evaluator transcribes one display; the verify drivers pair
each bound with the matching least-prime search (or class-number pair)
and emit BoundReports.  Every checked row is decided by one rule,
`BoundReport.decide`: measured must lie in [lower, upper], each end
widened by the row's slack.  Applicability thresholds are first class:
below threshold the margin is still reported but the verdict says
not-applicable rather than claiming a verification.  A fail verdict
(applicable and measured outside its interval) is always loud; at these
ranges it means a bug rather than a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import arith
from .arith import euler_phi, factorize, is_prime, prime_windows, unit_group_structure
from .characters import (
    SubgroupSpec,
    is_fundamental_discriminant,
    kth_power_subgroup,
    subgroup_from_generators,
    trivial_subgroup,
)
from .lfunctions import (
    EULER_GAMMA,
    class_number_bqf,
    class_number_via_formula,
)
from .search import (
    coset_representatives,
    least_prime_all_classes,
    least_prime_outside_subgroup,
    least_qnr,
)

__all__ = [
    "BoundReport",
    "ap_bound",
    "class_number_bounds",
    "coset_bound",
    "float_sum_slack",
    "l1_value_bounds",
    "subgroup_bound_clean_applicable",
    "subgroup_bound_quantities",
    "verify_ap",
    "verify_classnum",
    "verify_coset",
    "verify_qnr",
    "verify_subgroup",
    "verify_subgroup_clean",
]

AP_THRESHOLD = 4  # progression bound stated for q > 3
SUBGROUP_THRESHOLD = 3000
COSET_THRESHOLD = 20000
LVALUE_THRESHOLD = 10**10  # thm15 and cor16 are stated for q >= 1e10


class BoundReport(NamedTuple):
    """One report row: eight output cells, then the slack its verdict
    allowed, which no output format writes."""

    formula: str
    q: int
    target: str
    measured: float | None
    bound: float | None
    margin: float | None
    applicable: bool
    verdict: str  # pass | fail | not-applicable | not-found
    slack: float = 0.0

    @staticmethod
    def value(formula: str, q: int, target: str, value: float, applicable: bool = True) -> "BoundReport":
        """A row that reports a value in the bound column and checks nothing."""
        return BoundReport(formula, q, target, None, value, None, applicable, "not-applicable")

    @staticmethod
    def decide(
        formula: str, q: int, target: str, measured: float | None, *, upper: float | None = None,
        lower: float | None = None, slack: float = 0.0, strict: bool = False, applicable: bool = True,
    ) -> "BoundReport":
        """The one verdict rule: pass when measured lies in [lower, upper].
        Either end may be None (open).  Each end is widened by slack, and
        strict excludes the ends.  The bound column holds upper, or lower
        when there is no upper end; the margin is upper - measured, or
        measured - lower.  A measured of None is not-found."""
        bound = lower if upper is None else upper
        if measured is None:
            return BoundReport(formula, q, target, None, bound, None, applicable, "not-found", slack)
        margin = measured - lower if upper is None else upper - measured
        lo = -math.inf if lower is None else lower - slack
        hi = math.inf if upper is None else upper + slack
        holds = lo < measured < hi if strict else lo <= measured <= hi
        verdict = ("pass" if holds else "fail") if applicable else "not-applicable"
        return BoundReport(formula, q, target, measured, bound, margin, applicable, verdict, slack)


def float_sum_slack(bound: float) -> float:
    """Slack for a sum of floats held against a bound of the same size: a
    relative 1e-12 of the bound, and 1e-12 absolute near 0."""
    return 1e-12 * (1 + abs(bound))


# ----------------------------------------------------------------------
# Formula evaluators
# ----------------------------------------------------------------------


def _search_ceiling(bound: float, floor: int) -> int:
    """4x the bound, at least floor: a search that should succeed below the
    bound ends loudly with not-found instead of looping when something is
    wrong."""
    return max(floor, int(4 * bound) + 1)


@dataclass(frozen=True)
class SubgroupBoundQuantities:
    q: int
    a_term: float
    b_term: float
    bound: float


def subgroup_bound_quantities(q: int) -> SubgroupBoundQuantities:
    """A(q), B(q), and the bound (log q + B(q))^2 for primes off a subgroup.

    A(q) = max(0, 2 log log q - 8/5 - sum_{p|q} log p/(p-1))
    B(q) = max(0, 2 log log q + 3 + 2 omega(q) (log log q)^2/log q - 2 A(q))
    """
    if q < 3:
        raise ValueError("q >= 3 required")
    lq = math.log(q)
    llq = math.log(lq)
    fac = factorize(q)
    prime_sum = math.fsum(math.log(p) / (p - 1) for p, _ in fac.factors)
    a_term = max(0.0, 2 * llq - 1.6 - prime_sum)
    b_term = max(0.0, 2 * llq + 3 + 2 * fac.omega * llq**2 / lq - 2 * a_term)
    return SubgroupBoundQuantities(q, a_term, b_term, (lq + b_term) ** 2)


SUBGROUP_CEILING_FLOOR = 1000


def subgroup_bound_clean_applicable(q: int) -> bool:
    """q >= SUBGROUP_THRESHOLD and no prime below (log q)^2 divides q (the
    clean (log q)^2 branch)."""
    if q < 3:
        raise ValueError("q >= 3 required")
    return q >= SUBGROUP_THRESHOLD and all(p >= math.log(q) ** 2 for p, _ in factorize(q).factors)


def coset_bound(q: int, h: int) -> float:
    """((h-1) log q + 3(h+1) + (5/2)(log log q)^2)^2."""
    if q < 3:
        raise ValueError("q >= 3 required")
    lq = math.log(q)
    llq = math.log(lq)
    return ((h - 1) * lq + 3 * (h + 1) + 2.5 * llq**2) ** 2


# A prime at or below this passes outright, so coset searches run at
# least this far.
COSET_DIRECT_BRANCH = 10**9


def ap_bound(q: int) -> float:
    """(phi(q) log q)^2 for the least prime in a progression."""
    return (euler_phi(q) * math.log(q)) ** 2


AP_CEILING_FLOOR = 10**6


@dataclass(frozen=True)
class LValueBounds:
    q: float
    upper: float
    reciprocal_upper: float


def l1_value_bounds(q: float) -> LValueBounds:
    """|L(1, chi)| <= 2 e^gamma (log log q - log 2 + 1/2 + 1/log log q) and
    the companion 12 e^gamma/pi^2 bound for 1/|L(1, chi)|."""
    if q <= math.e:
        raise ValueError("log log q must be positive")
    llq = math.log(math.log(q))
    core = llq - math.log(2) + 0.5 + 1 / llq
    upper = 2 * math.exp(EULER_GAMMA) * core
    recip = (
        12
        * math.exp(EULER_GAMMA)
        / math.pi**2
        * (core + 14 * llq / math.log(q))
    )
    return LValueBounds(q, upper, recip)


@dataclass(frozen=True)
class ClassNumberBounds:
    q: float
    lower: float
    upper: float
    lower_floor: int


def class_number_bounds(q: float) -> ClassNumberBounds:
    """Two-sided bounds for h(-q) = sqrt(q) L(1, chi)/pi from the
    L(1, chi) bounds."""
    vb = l1_value_bounds(q)
    lower = math.sqrt(q) / (math.pi * vb.reciprocal_upper)
    upper = math.sqrt(q) / math.pi * vb.upper
    return ClassNumberBounds(q, lower, upper, math.floor(lower))


# ----------------------------------------------------------------------
# Verification drivers
# ----------------------------------------------------------------------


def _subgroup_for(q: int, spec: str) -> SubgroupSpec:
    if spec == "squares":
        return kth_power_subgroup(q, 2)
    if spec == "trivial":
        return trivial_subgroup(q)
    kind, _, arg = spec.partition(":")
    parts = arg.split(",")
    numbers = [int(a) for a in parts if a.removeprefix("-").isdecimal()]
    if kind == "powers" and len(numbers) == len(parts) == 1:
        return kth_power_subgroup(q, numbers[0])
    if kind == "gens" and len(numbers) == len(parts):
        return subgroup_from_generators(q, numbers)
    raise ValueError(f"unknown subgroup spec {spec!r}: expected squares | powers:K | gens:a,b | trivial")


def verify_qnr(q: int) -> BoundReport:
    """Least quadratic non-residue against (log q)^2, primes q >= 5."""
    res = least_qnr(q)
    bound = math.log(q) ** 2
    return BoundReport.decide("cor12", q, "qnr", res.prime, upper=bound, strict=True, applicable=q >= 5)


def verify_subgroup(q: int, subgroup: str = "squares", ceiling: int | None = None) -> BoundReport:
    """Least prime off H against (log q + B(q))^2."""
    return _verify_off_subgroup(q, subgroup, ceiling, clean=False)


def verify_subgroup_clean(q: int, subgroup: str = "squares", ceiling: int | None = None) -> BoundReport:
    """Least prime off H against the clean (log q)^2 branch."""
    return _verify_off_subgroup(q, subgroup, ceiling, clean=True)


def _verify_off_subgroup(q: int, subgroup: str, ceiling: int | None, clean: bool) -> BoundReport:
    """One search up to 4x (log q + B(q))^2, against thm12's clean branch or
    thm11.  When H is all of (Z/qZ)*, no prime lies off it: the row is
    not-applicable, with no search."""
    vals = subgroup_bound_quantities(q)
    h = _subgroup_for(q, subgroup)
    if clean:
        formula, bound, applicable = "thm12", math.log(q) ** 2, subgroup_bound_clean_applicable(q)
    else:
        formula, bound, applicable = "thm11", vals.bound, q >= SUBGROUP_THRESHOLD
    if h.index == 1:
        return BoundReport.value(formula, q, f"outside:{h.kind}", bound, applicable=False)
    if ceiling is None:
        ceiling = _search_ceiling(vals.bound, SUBGROUP_CEILING_FLOOR)
    res = least_prime_outside_subgroup(q, h, ceiling)
    return BoundReport.decide(formula, q, res.target, res.prime, upper=bound, applicable=applicable)


def verify_ap(q: int, per_class: bool = False, ceiling: int | None = None) -> list[BoundReport]:
    """P(a, q) <= (phi(q) log q)^2, every reduced class at once.

    One row per class when per_class is set, else a single worst-class row.
    """
    bound = ap_bound(q)
    if ceiling is None:
        ceiling = _search_ceiling(bound, AP_CEILING_FLOOR)
    least = least_prime_all_classes(q, ceiling)
    missing = np.flatnonzero(unit_group_structure(q).unit_mask & (least == 0))
    applicable = q >= AP_THRESHOLD
    # a class with no prime below the ceiling gives a not-found row
    if per_class:
        return [
            BoundReport.decide("cor15", q, f"ap:a={a}", int(least[a]) or None, upper=bound, applicable=applicable)
            for a in np.concatenate([np.flatnonzero(least), missing]).tolist()
        ]
    if missing.size:
        return [BoundReport.decide("cor15", q, f"ap:a={int(missing[0])}", None, upper=bound, applicable=applicable)]
    worst = int(np.argmax(least))  # a prime lies in one class, so no tie
    return [BoundReport.decide("cor15", q, f"ap:worst-a={worst}", int(least[worst]), upper=bound, applicable=applicable)]


def verify_coset(q: int, subgroup: str = "squares", ceiling: int | None = None) -> list[BoundReport]:
    """Least prime in each coset aH, all from one sieve, against the coset bound (1e9 short branch)."""
    if q < 3:  # before the subgroup, which fails on q = 0 or 2 with a message about its generators
        raise ValueError("q >= 3 required")
    h = _subgroup_for(q, subgroup)
    bound = coset_bound(q, h.index)
    applicable = q >= COSET_THRESHOLD and h.index > 1
    if ceiling is None:
        ceiling = _search_ceiling(bound, COSET_DIRECT_BRANCH)
    reps, cosets = coset_representatives(h)
    out = []
    for a, p in zip(reps, least_prime_all_classes(q, ceiling, cosets).tolist()):
        effective = max(bound, float(COSET_DIRECT_BRANCH)) if 0 < p <= COSET_DIRECT_BRANCH else bound
        out.append(BoundReport.decide("thm14", q, f"coset:a={a}:{h.kind}", p or None, upper=effective, applicable=applicable))
    return out


def verify_classnum(q: int) -> BoundReport:
    """Reduced-form count against the class formula, two exact integers."""
    formula = float(class_number_via_formula(q))
    return BoundReport.decide("eq13", q, f"h(-{q})", float(class_number_bqf(q)), lower=formula, upper=formula)


def verify_elementary(q: int) -> list[BoundReport]:
    """phi(q) >= 4156, 2^omega(q) <= q^(3/7), phi(q) >= q^(5/6).

    Claims stated for q > 20000; checked, as not-applicable, anywhere.
    """
    fac = factorize(q)
    phi, two_omega = float(fac.phi), float(2**fac.omega)
    applicable = q > COSET_THRESHOLD
    return [
        BoundReport.decide("sec43", q, "phi>=4156", phi, lower=4156.0, applicable=applicable),
        BoundReport.decide("sec43", q, "2^omega<=q^(3/7)", two_omega, upper=q ** (3 / 7), applicable=applicable),
        BoundReport.decide("sec43", q, "phi>=q^(5/6)", phi, lower=q ** (5 / 6), applicable=applicable),
    ]


def _qnr_moduli(qs: Iterable[int]) -> Iterator[int]:
    """The primes q >= 5 of qs, in order.  A step-1 range of at least
    isqrt(t) integers, t its top, with isqrt(t) <= arith._WINDOW, reads them
    from prime_windows, the walk of the least-prime searches.  Anything else
    is filtered by is_prime, one q at a time: a shorter range costs less that
    way than sieving by every prime up to isqrt(t), and a higher one would
    ask the shared sieve for more than _WINDOW."""
    if isinstance(qs, range) and qs.step == 1 and math.isqrt(max(qs.stop - 1, 0)) <= min(len(qs), arith._WINDOW):
        for ps in prime_windows(qs.stop - 1, qs.stop - 1, max(qs.start, 5) - 1):
            yield from ps.tolist()
    else:
        yield from (q for q in qs if q >= 5 and is_prime(q))


# The rows of each formula at one q.  Each lambda looks its verifier up
# when called, so a module attribute patched after import is what runs.
_STREAMS = {
    "cor12": lambda q, **_: [verify_qnr(q)],  # at the q of _qnr_moduli only
    "thm11": lambda q, **kw: [verify_subgroup(q, **kw)],
    "thm12": lambda q, **kw: [verify_subgroup_clean(q, **kw)],
    "cor15": lambda q, **kw: verify_ap(q, **kw),
    "thm14": lambda q, **kw: verify_coset(q, **kw),
    "eq13": lambda q, **_: [verify_classnum(q)] if q > 4 and is_fundamental_discriminant(q) else [],
    "sec43": lambda q, **_: verify_elementary(q),
}


def verify_stream(formula: str, qs: Iterable[int], **kwargs) -> Iterator[BoundReport]:
    """Uniform driver used by the command line scanner; an unknown formula
    raises before the first q, so also over an empty range.  cor12 visits
    only the primes q >= 5 of qs (see _qnr_moduli)."""
    if formula not in _STREAMS:
        raise ValueError(f"unknown formula {formula!r}")
    rows_at = _STREAMS[formula]
    if formula == "cor12":
        qs = _qnr_moduli(qs)
    for q in qs:
        yield from rows_at(q, **kwargs)
