"""Least-prime searches.

Least prime outside a subgroup (outside the k-th powers it is the least
k-th power non-residue), least quadratic non-residue, and least prime in
every reduced class, or every coset of a subgroup (a progression is a coset
of the trivial subgroup), at once.  Subgroup scans walk the prime sieve and
test membership by exponent; the class and coset search folds each stretch
of the sieve into one array.  Results always report minimality: primes are
visited in increasing order.  Searches stop at the ceiling they are given;
bounds derives it from the bound checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import factorize, primes_up_to, unit_group_structure
from .characters import SubgroupSpec, kth_power_subgroup

__all__ = [
    "ImproperSubgroupError",
    "SearchResult",
    "coset_representatives",
    "least_prime_all_classes",
    "least_prime_outside_subgroup",
    "least_qnr",
]


_UNSEEN = np.iinfo(np.int64).max
COSET_INDEX_CEILING = 1 << 20  # keeps the coset sieve's first stretch, 64 x index, at 2^26


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


def least_prime_all_classes(q: int, ceiling: int, cosets: np.ndarray | None = None) -> np.ndarray:
    """Least prime in every reduced class mod q at once.

    Returns `least`, int64 of length q: least[a] is the least prime
    congruent to a at or below the ceiling, 0 on non-units and on classes
    with no prime found.  Given the numbering `cosets` of
    coset_representatives, it returns the least prime of each of its n
    cosets, length n.  The sieve grows 4x from max(64 n, 4096) (n = q
    without cosets) until every class or coset is hit; each stretch folds
    only its new primes into `least` by one unbuffered np.minimum.at pass.
    """
    if cosets is None:
        n, wanted = q, unit_group_structure(q).unit_mask
    else:
        n = int(cosets[0])  # residue 0 is not a unit (q >= 2), so it holds n
        wanted = np.arange(n + 1) < n  # slot n takes the primes dividing q
    least = np.full(wanted.size, _UNSEEN, dtype=np.int64)
    done = 0
    limit = min(ceiling, max(64 * n, 4096))
    while True:
        ps = primes_up_to(limit)[done:]
        np.minimum.at(least, ps % q if cosets is None else cosets[ps % q], ps)
        done += len(ps)
        if limit >= ceiling or (least[wanted] != _UNSEEN).all():
            break
        limit = min(ceiling, limit * 4)
    least[~wanted | (least == _UNSEEN)] = 0
    return least[:n]


def coset_representatives(h: SubgroupSpec) -> tuple[list[int], np.ndarray]:
    """Smallest member of each coset of H, ascending, and the numbering that
    least_prime_all_classes reads: cosets[r] is the position of r's coset
    for a unit r, h.index off the units (residue 0 among them).  That sieve
    starts at 64 x the index, so an index above COSET_INDEX_CEILING is refused."""
    q = h.q
    members = np.flatnonzero(h.mask)  # ModulusTooLargeError above DLOG_CEILING, before any O(q) array
    if h.index > COSET_INDEX_CEILING:
        raise ValueError(f"subgroup index {h.index} exceeds the coset sieve's ceiling {COSET_INDEX_CEILING}")
    free = unit_group_structure(q).unit_mask.copy()
    cosets = np.full(q, h.index, dtype=np.min_scalar_type(h.index))
    coset = np.empty_like(members)  # one buffer for every aH: no temporaries of size |H|
    reps = []
    a = 0
    while True:
        a += int(np.argmax(free[a:]))  # the least free unit at or past a
        if not free[a]:
            return reps, cosets
        np.multiply(members, a, out=coset)
        coset %= q
        free[coset] = False
        cosets[coset] = len(reps)
        reps.append(a)
