"""Least-prime searches.

Least prime outside a subgroup (outside the k-th powers it is the least
k-th power non-residue), least quadratic non-residue, and least prime in
every reduced class, or every coset of a subgroup (a progression is a coset
of the trivial subgroup), at once.  The least quadratic non-residue of a
prime reads one quadratic-reciprocity table per small prime, built from
Kronecker tables, and hands the rare prime those leave unresolved to the
subgroup search.  Every other search reads arith.prime_windows, the one
bounded walk: the subgroup search tests membership by exponent, and the
class and coset search folds each stretch into one array; the classes its
first stretch leaves empty step along their progressions before it walks on.
Results always report minimality: primes are visited in increasing order.
Searches stop at the ceiling they are given; bounds derives it from the
bound checked.  No stretch is wider than arith._WINDOW, so the sieve's
memory does not grow with the modulus, the index or the ceiling.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from . import arith
from .arith import is_prime, is_prime_array, prime_windows, primes_between, primes_up_to, unit_group_structure
from .characters import SubgroupSpec, kronecker_character_table, kth_power_subgroup

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


class SearchResult(NamedTuple):
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


# Every prime q below 10^9 has a non-residue at or below 83 (OEIS A000229),
# so the tables of the primes below this resolve all but rare q.
_QNR_TABLE_LIMIT = 256


@cache
def _reciprocity_tables() -> tuple[tuple[int, bytes], ...]:
    """(l, table) for each prime l < _QNR_TABLE_LIMIT, increasing, built on
    first use: table[q % len(table)] is 1 exactly when l is a quadratic
    non-residue mod the odd prime q != l.  (l/q) = chi_-4(q) chi_-d(q), a
    function of q mod 4l, where -d = -8, -l or -4l is the discriminant of
    Q(sqrt(-l)).  Entries at even r and at multiples of l are 0."""
    chi4 = kronecker_character_table(4)
    out = []
    for ell in primes_up_to(_QNR_TABLE_LIMIT).tolist():
        d = ell if ell % 4 == 3 else 4 * ell
        symbol = np.tile(chi4, ell) * np.tile(kronecker_character_table(d), 4 * ell // d)
        out.append((ell, (symbol == -1).astype(np.uint8).tobytes()))
    return tuple(out)


def least_qnr(q: int) -> SearchResult:
    """Least prime quadratic non-residue mod an odd prime q: the least prime
    off the squares, examined counting the primes tried.  It walks l = 2, 3,
    5, ... through the reciprocity tables, one lookup each; a q that none
    resolves goes to the subgroup search.  One lies below q, so q is the
    ceiling."""
    if q < 3 or not is_prime(q):
        raise ValueError("least_qnr expects an odd prime modulus")
    for examined, (ell, table) in enumerate(_reciprocity_tables(), 1):
        if table[q % len(table)]:
            return SearchResult(q, "outside:powers:2", ell, examined, q)
    return least_prime_outside_subgroup(q, kth_power_subgroup(q, 2), q)


def least_prime_all_classes(q: int, ceiling: int, cosets: np.ndarray | None = None) -> np.ndarray:
    """Least prime in every reduced class mod q at once.

    Returns `least`, int64 of length q: least[a] is the least prime
    congruent to a at or below the ceiling, 0 on non-units and on classes
    with no prime found.  Given the numbering `cosets` of
    coset_representatives, it returns the least prime of each of its n
    cosets, length n.  Each stretch of primes folds into `least` by one
    unbuffered np.minimum.at pass: first (0, end], end = min(max(64 n, 4096),
    arith._WINDOW, ceiling) (n = q without cosets); then, for classes only,
    _step_empty_classes finishes those left empty up to min(ceiling,
    _WINDOW); then prime_windows walks on until every one is hit.
    """
    if cosets is None:
        n, wanted = q, unit_group_structure(q).unit_mask
    else:
        n = int(cosets[0])  # residue 0 is not a unit (q >= 2), so it holds n
        wanted = np.arange(n + 1) < n  # slot n takes the primes dividing q
    least = np.where(wanted, _UNSEEN, 0)  # a slot at 0 stays 0, so the max reads only wanted ones

    def fold(ps: np.ndarray) -> None:
        r = _residues(ps, q)
        np.minimum.at(least, r if cosets is None else cosets[r], ps)

    end = min(max(64 * n, 4096), arith._WINDOW, ceiling)
    fold(primes_between(0, end))
    top = min(ceiling, arith._WINDOW) if cosets is None else end  # cosets walk on from end: nothing steps
    _step_empty_classes(least, q, end, top)
    walk = prime_windows(ceiling, 4 * top, top)
    while least.max() == _UNSEEN and (ps := next(walk, None)) is not None:
        fold(ps)
    least[least == _UNSEEN] = 0
    return least[:n]


def _residues(ps: np.ndarray, q: int) -> np.ndarray:
    """ps % q for increasing primes ps: each run of ps between consecutive
    multiples of q, found by one binary search per multiple, less that
    multiple.  A stretch below x holds about q / log x primes per multiple,
    and a subtraction costs far less than an int64 division; where the
    multiples are more than the primes, the division stays."""
    if ps.size == 0 or int(ps[-1] - ps[0]) // q >= ps.size:
        return ps % q
    multiples = np.arange(int(ps[0]) // q, int(ps[-1]) // q + 2) * q
    r = np.repeat(multiples[:-1], np.diff(ps.searchsorted(multiples)))
    return np.subtract(ps, r, out=r)


_STEP = 64  # terms of each empty class's progression read per pass


def _step_empty_classes(least: np.ndarray, q: int, lo: int, top: int) -> None:
    """Give each class a still at _UNSEEN in `least`, with no prime at or
    below lo, its least prime in (lo, top], top <= arith._WINDOW: step along
    a + j q, _STEP terms at a time, through the shared sieve's bits, and
    take the first prime met.  A class with none stays at _UNSEEN."""
    if lo >= top:  # nothing to step through, so no O(q) arrays either
        return
    a = np.flatnonzero(least == _UNSEEN)
    term = a + ((lo - a) // q + 1) * q  # each class's first term past lo
    a, term = a[term <= top], term[term <= top]
    steps = np.arange(_STEP) * q
    while a.size:
        terms = term[:, None] + steps
        hit = is_prime_array(np.minimum(terms, top)) & (terms <= top)
        found = hit.any(axis=1)
        least[a[found]] = terms[found, hit[found].argmax(axis=1)]
        going = ~found & (terms[:, -1] + q <= top)
        a, term = a[going], terms[going, -1] + q


def coset_representatives(h: SubgroupSpec) -> tuple[list[int], np.ndarray]:
    """Smallest member of each coset of H, ascending, and the numbering that
    least_prime_all_classes reads: cosets[r] is the position of r's coset
    for a unit r, h.index off the units (residue 0 among them).  Its O(q)
    arrays are the only memory that grows with the index; the sieve's does not."""
    q = h.q
    members = np.flatnonzero(h.mask)  # ModulusTooLargeError above DLOG_CEILING, before any O(q) array
    units = unit_group_structure(q).unit_mask
    cosets = np.full(q, h.index, dtype=np.min_scalar_type(h.index))
    if members.size == 1:  # H = {1}: each unit is its own coset, numbered by its rank
        cosets[units] = np.arange(h.index)
        return np.flatnonzero(units).tolist(), cosets
    free = units.copy()
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
