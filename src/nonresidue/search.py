"""Least-prime searches.

Least prime outside a subgroup (outside the k-th powers it is the least
k-th power non-residue), least quadratic non-residue, and least prime in
every reduced class, or every coset of a subgroup (a progression is a coset
of the trivial subgroup), at once.  Both searches read the primes through
arith.prime_windows, one bounded walk: subgroup scans test membership by
exponent, and the class and coset search folds each stretch into one array.
Results always report minimality: primes are visited in increasing order.
Searches stop at the ceiling they are given; bounds derives it from the
bound checked.  No stretch is wider than arith._WINDOW, so the sieve's
memory does not grow with the modulus, the index or the ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import factorize, prime_windows, unit_group_structure
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

    Reads prime_windows from 64, so a search that ends early never sieves
    toward a far ceiling; membership is h.contains.
    """
    if h.index == 1:
        raise ImproperSubgroupError(f"subgroup is all of (Z/{q}Z)*")
    target = f"outside:{h.kind}"
    examined = 0
    for ps in prime_windows(ceiling, 64):
        for p in map(int, ps):
            if q % p == 0:
                continue
            examined += 1
            if not h.contains(p):
                return SearchResult(q, target, p, examined, ceiling)
    return SearchResult(q, target, None, examined, ceiling)


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
    cosets, length n.  It reads prime_windows from max(64 n, 4096) (n = q
    without cosets) until every class or coset is hit; each stretch folds
    into `least` by one unbuffered np.minimum.at pass.
    """
    if cosets is None:
        n, wanted = q, unit_group_structure(q).unit_mask
    else:
        n = int(cosets[0])  # residue 0 is not a unit (q >= 2), so it holds n
        wanted = np.arange(n + 1) < n  # slot n takes the primes dividing q
    least = np.where(wanted, _UNSEEN, 0)  # a slot at 0 stays 0, so the max reads only wanted ones
    for ps in prime_windows(ceiling, max(64 * n, 4096)):
        np.minimum.at(least, ps % q if cosets is None else cosets[ps % q], ps)
        if least.max() < _UNSEEN:
            break
    least[least == _UNSEEN] = 0
    return least[:n]


def coset_representatives(h: SubgroupSpec) -> tuple[list[int], np.ndarray]:
    """Smallest member of each coset of H, ascending, and the numbering that
    least_prime_all_classes reads: cosets[r] is the position of r's coset
    for a unit r, h.index off the units (residue 0 among them).  Its O(q)
    arrays are the only memory that grows with the index; the sieve's does not."""
    q = h.q
    members = np.flatnonzero(h.mask)  # ModulusTooLargeError above DLOG_CEILING, before any O(q) array
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
