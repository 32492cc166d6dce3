"""Least-prime searches.

Least prime outside a subgroup (outside the k-th powers it is the least
k-th power non-residue), least quadratic non-residue, least prime in a
coset (a progression is a coset of the trivial subgroup), and least
prime in every reduced class at once.
Subgroup scans walk the prime sieve and test membership by exponent
(dense predicate); coset searches step candidates and apply the
deterministic primality test (sparse predicate), so large moduli stay
cheap.  Results always report minimality: primes are visited in
increasing order.  Searches stop at the ceiling they are given; bounds
derives it from the bound checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import factorize, is_prime, primes_up_to, unit_group_structure
from .characters import NonUnitCosetError, SubgroupSpec, kth_power_subgroup

__all__ = [
    "ImproperSubgroupError",
    "SearchResult",
    "least_prime_all_classes",
    "least_prime_in_coset",
    "least_prime_outside_subgroup",
    "least_qnr",
]


_UNSEEN = np.iinfo(np.int64).max


class ImproperSubgroupError(ValueError):
    """The subgroup is all of (Z/qZ)*, so nothing lies outside it."""


@dataclass(frozen=True)
class SearchResult:
    q: int
    target: str
    prime: int | None
    examined: int
    ceiling: int


def least_prime_outside_subgroup(q: int, h: SubgroupSpec, ceiling: int) -> SearchResult:
    """Least prime l <= ceiling with l not dividing q and l mod q outside H.

    The sieve is read in stretches growing 4x from 64, so a search that
    ends early never sieves toward a far ceiling; membership is h.contains.
    """
    if h.index == 1:
        raise ImproperSubgroupError(f"subgroup is all of (Z/{q}Z)*")
    target = f"outside:{h.kind}"
    examined = 0
    done = 0
    limit = 64
    while True:
        limit = min(limit, ceiling)
        ps = primes_up_to(limit)
        for p in map(int, ps[done:]):
            if q % p == 0:
                continue
            examined += 1
            if not h.contains(p):
                return SearchResult(q, target, p, examined, ceiling)
        if limit >= ceiling:
            return SearchResult(q, target, None, examined, ceiling)
        done = len(ps)
        limit *= 4


def least_qnr(q: int) -> SearchResult:
    """Least prime quadratic non-residue mod an odd prime q: the least prime
    off the squares.  One lies below q, so q is the ceiling."""
    if q < 3 or factorize(q).factors != ((q, 1),):
        raise ValueError("least_qnr expects an odd prime modulus")
    return least_prime_outside_subgroup(q, kth_power_subgroup(q, 2), q)


def least_prime_in_coset(q: int, h: SubgroupSpec, a: int, ceiling: int) -> SearchResult:
    """Least prime p with p mod q in the coset aH."""
    if math.gcd(a, q) != 1:
        raise NonUnitCosetError(f"a={a} is not a unit mod {q}")
    # aH is H permuted; q <= DLOG_CEILING keeps products below 10^14.  The
    # memoryview yields Python ints without a list of all |H| of them.
    residues = memoryview(np.sort(a % q * h.member_array % q))
    target = f"coset:a={a % q}:{h.kind}"
    examined = 0
    base = 0
    while base <= ceiling:
        for r in residues:
            n = base + r
            if n < 2 or n > ceiling:
                continue
            examined += 1
            if is_prime(n):
                return SearchResult(q, target, n, examined, ceiling)
        base += q
    return SearchResult(q, target, None, examined, ceiling)


def least_prime_all_classes(q: int, ceiling: int) -> np.ndarray:
    """Least prime in every reduced class mod q at once.

    Returns `least`, int64 of length q: least[a] is the least prime
    congruent to a at or below the ceiling, 0 on non-units and on classes
    with no prime found.  The sieve grows 4x until every reduced class is
    hit; each stretch folds only its new primes into `least` by one
    unbuffered np.minimum.at pass.
    """
    units = unit_group_structure(q).unit_mask
    least = np.full(q, _UNSEEN, dtype=np.int64)
    done = 0
    limit = min(ceiling, max(64 * q, 4096))
    while True:
        ps = primes_up_to(limit)[done:]
        np.minimum.at(least, ps % q, ps)
        done += len(ps)
        if limit >= ceiling or (least[units] != _UNSEEN).all():
            break
        limit = min(ceiling, limit * 4)
    least[~units | (least == _UNSEEN)] = 0
    return least
