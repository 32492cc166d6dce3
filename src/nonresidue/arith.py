"""Integer arithmetic layer.

Deterministic 64-bit primality, factorization, a grow-only prime sieve to
_WINDOW and the primes of any stretch past it (which every least-prime
search and prime-power sum reads), and the decomposition of the unit group
(Z/qZ)* into cyclic components, with discrete-log tables built on demand.
The sieve keeps one bit per integer beside its primes: is_prime reads it,
one lookup, wherever it reaches (growing it first for n < 2^20), and
Miller-Rabin proves only what lies above it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Factorization",
    "ModulusTooLargeError",
    "UnitGroupStructure",
    "euler_phi",
    "factorize",
    "is_prime",
    "is_prime_array",
    "prime_windows",
    "primes_between",
    "primes_up_to",
    "unit_group_structure",
]

DLOG_CEILING = 10**7

# The first twelve primes as strong-probable-prime witnesses prove every
# n < psi_12 ~ 3.19e23, far past 2^63 (3.3e24 is psi_13, which needs 41).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (psi_k, k): the first k witnesses prove every n < psi_k (Jaeschke, Math. Comp. 61, 1993;
# Sorenson and Webster, Math. Comp. 86, 2017; OEIS A014233).  is_prime reads the sieve
# below _SIEVE_FIRST > psi_1 = 2047, so the shortest prefix it reaches is two witnesses.
_MR_PREFIXES = ((1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
                (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9))

_TRIAL_LIMIT = 10**5


class ModulusTooLargeError(ValueError):
    """Raised when an O(q) table (unit group, subgroup mask) would exceed DLOG_CEILING."""


# is_prime grows the shared sieve to cover any n below this, once, for about
# 4 ms and 0.8 MB (its bits and its primes), instead of proving it.
_SIEVE_FIRST = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for 0 <= n < 2**63: one lookup in
    the shared sieve's bits wherever it reaches, after growing it for
    n < _SIEVE_FIRST; Miller-Rabin above it."""
    if n < 2:
        return False
    if n > _sieve_limit:
        if n >= _SIEVE_FIRST:
            return _miller_rabin(n)
        primes_up_to(n)
    return _sieve_bits[n >> 3] >> (n & 7) & 1 == 1


def _miller_rabin(n: int) -> bool:
    """Primality of 2 <= n < 2**63: trial division by the witnesses, then
    Miller-Rabin on the shortest prefix _MR_PREFIXES proves."""
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    for bound, k in _MR_PREFIXES:
        if n < bound:
            break
    else:
        k = len(_MR_WITNESSES)
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Grow-only sieve shared by every caller: bit m & 7 of _sieve_bits[m >> 3]
# says whether m is prime, 0 <= m <= _sieve_limit, and _sieve_primes lists
# them.  The bits take an eighth of the bool mask they are packed from, so
# keeping them costs 1 MB at _WINDOW.  Treat both as read-only.
_sieve_limit = 0
_sieve_bits = memoryview(bytes(1))
_sieve_primes: np.ndarray = np.empty(0, dtype=np.int64)


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n in increasing order (view into a shared cache).

    The cache grows to n, or to twice its limit (at least 2^16) if that is
    more, but doubles no further than _WINDOW unless n itself is larger."""
    global _sieve_limit, _sieve_bits, _sieve_primes
    if n > _sieve_limit:
        limit = max(int(n), min(max(2 * _sieve_limit, 1 << 16), _WINDOW))
        mask = np.ones(limit + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        _sieve_primes = np.flatnonzero(mask)
        _sieve_bits = memoryview(np.packbits(mask, bitorder="little"))
        _sieve_limit = limit
    cut = _sieve_primes.searchsorted(n, side="right")
    return _sieve_primes[:cut]


def is_prime_array(ns: np.ndarray) -> np.ndarray:
    """is_prime of each entry of a non-empty int64 array, 0 <= ns, read from
    the shared sieve's bits after growing it to ns.max(): for entries up to
    _WINDOW, so that the sieve stays within it."""
    primes_up_to(int(ns.max()))
    bits = np.frombuffer(_sieve_bits, dtype=np.uint8)
    return (bits[ns >> 3] >> (ns & 7) & 1).astype(bool)


_WINDOW = 1 << 23  # widest stretch of a prime walk; past it each stretch has its own 8 MB mask


def primes_between(lo: int, hi: int) -> np.ndarray:
    """The primes in (lo, hi] in increasing order, 0 <= lo <= hi: a slice of
    the shared primes_up_to cache for hi <= _WINDOW, else sieved on its own
    by the odd primes <= sqrt(hi) in one byte per odd integer of (lo, hi]."""
    if hi <= _WINDOW:
        ps = primes_up_to(hi)
        return ps[ps.searchsorted(lo, side="right") :]
    first = (lo + 1) // 2  # mask[i] is 2 (first + i) + 1
    mask = np.ones((hi + 1) // 2 - first, dtype=bool)
    mask[: max(1 - lo, 0)] = False  # 1 is not prime
    for p in map(int, primes_up_to(math.isqrt(hi))[1:]):
        m = max(p, (lo // p + 1) | 1)  # least odd m with p m >= max(p^2, lo + 1)
        mask[(p * m) // 2 - first :: p] = False
    odd = 2 * (np.flatnonzero(mask) + first) + 1
    return np.concatenate(([2], odd)) if lo < 2 else odd


def prime_windows(ceiling: int, first: int, lo: int = 0) -> Iterator[np.ndarray]:
    """The primes in (lo, ceiling], increasing, as consecutive primes_between stretches.

    Stretch ends start at min(first, lo + _WINDOW), first > lo >= 0, and grow
    4x, no stretch wider than _WINDOW integers, so a walk that stops early
    sieves only as far as it read, and memory stays bounded however far it goes.
    """
    hi = min(first, lo + _WINDOW)
    while lo < ceiling:
        yield primes_between(lo, min(hi, ceiling))
        lo, hi = hi, min(4 * hi, hi + _WINDOW)


def _pollard_rho(n: int) -> int:
    """Brent-style rho; returns a nontrivial factor of composite odd n.

    The polynomial offset c advances deterministically so repeated runs
    factor identically.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g, xs = 1, 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                xs = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                xs = (xs * xs + c) % n
                g = math.gcd(abs(x - xs), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod p^e with primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    @property
    def phi(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= (p - 1) * p ** (e - 1)
        return out

    @property
    def squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def divisors(self) -> list[int]:
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        return sorted(divs)


# One modulus reads q, q/4 and p - 1 for each p | q; 64 entries hold
# those, and a larger cache only keeps moduli already done.
@lru_cache(maxsize=64)
def factorize(n: int) -> Factorization:
    """Factor 1 <= n < 2**63; n = 1 gives the empty product."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    m = n
    found: dict[int, int] = {}
    # One remainder over the primes <= min(_TRIAL_LIMIT, sqrt n).  No factor
    # left is below the limit, and a composite has one below its square root,
    # so a cofactor below _TRIAL_LIMIT^2 (or below n < _TRIAL_LIMIT^2) is prime.
    ps = primes_up_to(min(_TRIAL_LIMIT, math.isqrt(n)))
    for p in map(int, ps[n % ps == 0]):
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_LIMIT**2 or is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(n, tuple(sorted(found.items())))


def euler_phi(n: int) -> int:
    return factorize(n).phi


def _primitive_root_mod_p(p: int) -> int:
    if p == 2:
        return 1
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r, _ in fac.factors):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")  # unreachable for prime p


def _primitive_root_prime_power(p: int, k: int) -> int:
    # A root mod p lifts to every p^k once it is a root mod p^2.
    g = _primitive_root_mod_p(p)
    if k >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


@dataclass(frozen=True, eq=False)
class UnitGroupStructure:
    """(Z/qZ)* written as a product of cyclic groups.

    components[j] = (g_j, d_j): g_j generates a cyclic factor of order d_j,
    normalized so g_j is 1 modulo the other prime-power parts of q.
    prime_blocks groups component indices by the prime power they refine,
    which is what primitivity and parity read.  unit_mask[r] says whether
    r is coprime to q.  The discrete-log tables `dlogs` are O(q) per
    component and are built on their first read, not with the structure.
    """

    q: int
    components: tuple[tuple[int, int], ...]
    prime_blocks: tuple[tuple[int, int, tuple[int, ...]], ...]
    phi: int
    exponent: int
    unit_mask: np.ndarray

    @cached_property
    def dlogs(self) -> tuple[np.ndarray, ...]:
        """dlogs[j][r] is the exponent of r on component j, or -1 when r is
        divisible by the prime whose block holds j (use unit_mask for
        whether r is a unit: no component marks the 2 of q = 2 mod 4).

        Built once per structure from the local table of each prime power
        p^k | q, copied into every row of a (q / p^k, p^k) view.
        """
        tables: list[np.ndarray] = []
        for p, k, idxs in self.prime_blocks:
            pk = p**k
            if p == 2 and k >= 3:
                _, five = idxs
                half = self.components[five][1]
                pows = _powers(5, half, pk)
                t_sign = np.full(pk, -1, dtype=np.int64)
                t_five = np.full(pk, -1, dtype=np.int64)
                t_sign[pows], t_sign[pk - pows] = 0, 1
                t_five[pows] = t_five[pk - pows] = np.arange(half)
                local = [t_sign, t_five]
            else:
                (j,) = idxs
                g, order = self.components[j]
                tab = np.full(pk, -1, dtype=np.int64)
                tab[_powers(g % pk, order, pk)] = np.arange(order)
                local = [tab]
            for t in local:
                full = np.empty(self.q, dtype=np.int64)
                full.reshape(-1, pk)[:] = t
                tables.append(full)
        return tuple(tables)


def _powers(g: int, n: int, pk: int) -> np.ndarray:
    """g^0, ..., g^(n-1) mod pk as int64: about sqrt(n) baby steps times
    sqrt(n) giant steps, multiplied as an outer product.  Entries are below
    pk, so each product is below pk^2, which fits in int64 for pk < 3e9."""
    m = math.isqrt(n - 1) + 1
    baby = [1]
    for _ in range(m - 1):
        baby.append(baby[-1] * g % pk)
    step = baby[-1] * g % pk
    giant = [1]
    for _ in range(-(-n // m) - 1):
        giant.append(giant[-1] * step % pk)
    table = np.array(giant, dtype=np.int64)[:, None] * np.array(baby, dtype=np.int64)
    table %= pk
    return table.ravel()[:n]


def _crt_lift(residue: int, pk: int, q: int) -> int:
    """The unit mod q that is `residue` mod pk and 1 mod q // pk."""
    rest = q // pk
    if rest == 1:
        return residue % q
    return (residue * rest * pow(rest, -1, pk) + pk * pow(pk, -1, rest)) % q


# Each entry holds a q-byte unit mask, and a scan reads one modulus at a time.
@lru_cache(maxsize=4)
def unit_group_structure(q: int) -> UnitGroupStructure:
    """Cyclic decomposition of (Z/qZ)*: generators, orders and unit mask.

    Odd prime powers contribute one component generated by the smallest
    primitive root; 2^k with k >= 3 contributes the pair <-1> x <5>.
    Only the bool unit mask is O(q) here; the discrete-log tables are
    built on the first read of `dlogs`, so searches that need only
    membership never pay for them.
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    if q > DLOG_CEILING:
        raise ModulusTooLargeError(f"q={q} exceeds dlog-table ceiling {DLOG_CEILING}")

    gens: list[tuple[int, int]] = []
    blocks: list[tuple[int, int, tuple[int, ...]]] = []
    unit_mask = np.ones(q, dtype=bool)

    for p, k in factorize(q).factors:
        unit_mask[::p] = False
        pk = p**k
        if p == 2:
            if k == 1:
                continue
            if k == 2:
                blocks.append((2, 2, (len(gens),)))
                gens.append((_crt_lift(3, 4, q), 2))
            else:
                blocks.append((2, k, (len(gens), len(gens) + 1)))
                gens.append((_crt_lift(pk - 1, pk, q), 2))
                gens.append((_crt_lift(5, pk, q), pk // 4))
        else:
            g = _primitive_root_prime_power(p, k)
            blocks.append((p, k, (len(gens),)))
            gens.append((_crt_lift(g, pk, q), pk // p * (p - 1)))

    phi = 1
    exponent = 1
    for _, d in gens:
        phi *= d
        exponent = math.lcm(exponent, d)

    struct = UnitGroupStructure(
        q=q,
        components=tuple(gens),
        prime_blocks=tuple(blocks),
        phi=phi,
        exponent=exponent,
        unit_mask=unit_mask,
    )
    if phi != factorize(q).phi:
        raise ArithmeticError(f"component orders do not multiply to phi({q})")
    return struct
