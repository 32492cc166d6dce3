"""Integer arithmetic layer.

Deterministic 64-bit primality, factorization, a grow-only prime sieve,
the von Mangoldt function, and the decomposition of the unit group
(Z/qZ)* into cyclic components, with discrete-log tables built on demand.
"""

from __future__ import annotations

import math
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
    "primes_up_to",
    "unit_group_structure",
    "von_mangoldt",
]

DEFAULT_DLOG_CEILING = 10**7

# Witness set proving primality for every n < 3.3e24, far past 2^63.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 10**5


class ModulusTooLargeError(ValueError):
    """Raised when a unit-group table would exceed the configured ceiling."""


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for 0 <= n < 2**63."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
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


# Grow-only sieve shared by every caller; treat the returned array as read-only.
_sieve_limit = 0
_sieve_primes: np.ndarray = np.empty(0, dtype=np.int64)


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n in increasing order (view into a shared cache)."""
    global _sieve_limit, _sieve_primes
    if n > _sieve_limit:
        limit = max(int(n), 2 * _sieve_limit, 1 << 16)
        mask = np.ones(limit + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        _sieve_primes = np.nonzero(mask)[0].astype(np.int64)
        _sieve_limit = limit
    cut = np.searchsorted(_sieve_primes, n, side="right")
    return _sieve_primes[:cut]


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


@lru_cache(maxsize=200_000)
def factorize(n: int) -> Factorization:
    """Factor 1 <= n < 2**63; n = 1 gives the empty product."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    m = n
    found: dict[int, int] = {}
    for p in map(int, primes_up_to(min(_TRIAL_LIMIT, math.isqrt(m) + 1))):
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(n, tuple(sorted(found.items())))


def euler_phi(n: int) -> int:
    return factorize(n).phi


def von_mangoldt(n: int) -> float:
    """log p if n is a power of the prime p, else 0."""
    if n < 2:
        return 0.0
    fac = factorize(n)
    if fac.omega == 1:
        return math.log(fac.factors[0][0])
    return 0.0


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
    which is what conductor computations need.  unit_mask[r] says whether
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

    def is_unit(self, n: int) -> bool:
        return bool(self.unit_mask[n % self.q])

    def dlog(self, n: int) -> tuple[int, ...]:
        r = n % self.q
        if not self.unit_mask[r]:
            raise ValueError(f"{n} is not a unit mod {self.q}")
        return tuple(int(t[r]) for t in self.dlogs)

    def from_exponents(self, exps) -> int:
        out = 1 % self.q
        for (g, d), e in zip(self.components, exps):
            out = out * pow(g, e % d, self.q) % self.q
        return out


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


@lru_cache(maxsize=4096)
def unit_group_structure(q: int, ceiling: int = DEFAULT_DLOG_CEILING) -> UnitGroupStructure:
    """Cyclic decomposition of (Z/qZ)*: generators, orders and unit mask.

    Odd prime powers contribute one component generated by the smallest
    primitive root; 2^k with k >= 3 contributes the pair <-1> x <5>.
    Only the bool unit mask is O(q) here; the discrete-log tables are
    built on the first read of `dlogs`, so searches that need only
    membership never pay for them.
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    if q > ceiling:
        raise ModulusTooLargeError(f"q={q} exceeds dlog-table ceiling {ceiling}")

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
