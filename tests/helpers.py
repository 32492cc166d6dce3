"""Helpers that several test modules share and the library does not need."""

import numpy as np

from nonresidue.arith import factorize


def divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def members(h) -> list[int]:
    """The residues in the subgroup h of (Z/qZ)*, ascending."""
    return np.flatnonzero(h.mask).tolist()
