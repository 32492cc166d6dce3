"""Dirichlet characters mod q and subgroup machinery.

Characters are exponent vectors on the cyclic components of (Z/qZ)*.
Values are exact roots of unity (rational angles); complex doubles are
materialized only when a character enters an analytic sum.  Also here:
the fully extended Kronecker symbol, conductors and primitivization,
subgroups of (Z/qZ)* with membership bitmasks, annihilator character
groups, and the coset orthogonality indicator computed two independent
ways.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import UnitGroupStructure, factorize, unit_group_structure

__all__ = [
    "CharacterValue",
    "DirichletCharacter",
    "NonUnitCosetError",
    "SubgroupSpec",
    "annihilator",
    "character_group",
    "coset_indicator",
    "is_fundamental_discriminant",
    "kronecker",
    "kth_power_subgroup",
    "primitive_characters",
    "subgroup_from_generators",
    "trivial_subgroup",
]


class NonUnitCosetError(ValueError):
    """Coset representative is not coprime to the modulus."""


@dataclass(frozen=True)
class CharacterValue:
    """Exact character value: e(num/den) on units, or the zero marker.

    The angle num/den is a fraction of a full turn, reduced, 0 <= num < den.
    """

    num: int = 0
    den: int = 1
    zero: bool = False

    @staticmethod
    def from_angle(num: int, den: int) -> "CharacterValue":
        num %= den
        g = math.gcd(num, den)
        return CharacterValue(num // g, den // g)

    @property
    def is_one(self) -> bool:
        return not self.zero and self.num == 0

    @property
    def is_real(self) -> bool:
        return self.zero or self.den <= 2

    def conjugate(self) -> "CharacterValue":
        if self.zero:
            return self
        return CharacterValue.from_angle(-self.num, self.den)

    def __mul__(self, other: "CharacterValue") -> "CharacterValue":
        if self.zero or other.zero:
            return ZERO_VALUE
        den = math.lcm(self.den, other.den)
        return CharacterValue.from_angle(
            self.num * (den // self.den) + other.num * (den // other.den), den
        )

    def to_complex(self) -> complex:
        if self.zero:
            return 0j
        if self.den == 1:
            return 1 + 0j
        if self.den == 2:
            return -1 + 0j
        if self.den == 4:
            return 1j if self.num == 1 else -1j
        return cmath.exp(2j * math.pi * self.num / self.den)

    def real_int(self) -> int:
        """The value as an integer in {-1, 0, 1}; requires a real value."""
        if self.zero:
            return 0
        if self.den == 1:
            return 1
        if self.den == 2:
            return -1
        raise ValueError("character value is not real")


ZERO_VALUE = CharacterValue(zero=True)
ONE_VALUE = CharacterValue()

_roots_cache: dict[int, np.ndarray] = {}


def _roots_of_unity(n: int) -> np.ndarray:
    tab = _roots_cache.get(n)
    if tab is None:
        tab = np.exp(2j * math.pi * np.arange(n) / n)
        _roots_cache[n] = tab
    return tab


@dataclass(frozen=True, eq=False)
class DirichletCharacter:
    """chi(n) = e(sum_j e_j dlog_j(n) / d_j) on units, 0 elsewhere."""

    structure: UnitGroupStructure
    exponents: tuple[int, ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return self.q == other.q and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash((self.q, self.exponents))

    @property
    def q(self) -> int:
        return self.structure.q

    @cached_property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def order(self) -> int:
        out = 1
        for (_, d), e in zip(self.structure.components, self.exponents):
            out = math.lcm(out, d // math.gcd(e, d))
        return out

    @property
    def is_real(self) -> bool:
        return self.order <= 2

    @cached_property
    def index(self) -> int:
        """Lexicographic rank of the exponent vector; fixes report ordering."""
        rank = 0
        for (_, d), e in zip(self.structure.components, self.exponents):
            rank = rank * d + e
        return rank

    @cached_property
    def label(self) -> str:
        return f"chi{self.q}.{self.index}"

    def evaluate(self, n: int) -> CharacterValue:
        q = self.q
        if q == 1:
            return ONE_VALUE
        r = n % q
        if not self.structure.unit_mask[r]:
            return ZERO_VALUE
        big = self.structure.exponent
        num = 0
        for (_, d), e, tab in zip(
            self.structure.components, self.exponents, self.structure.dlogs
        ):
            num += e * (big // d) * int(tab[r])
        return CharacterValue.from_angle(num, big)

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.structure is not other.structure and self.q != other.q:
            raise ValueError("character product requires a common modulus")
        exps = tuple(
            (a + b) % d
            for (a, b, (_, d)) in zip(
                self.exponents, other.exponents, self.structure.components
            )
        )
        return DirichletCharacter(self.structure, exps)

    def conjugate(self) -> "DirichletCharacter":
        exps = tuple(
            (-e) % d for e, (_, d) in zip(self.exponents, self.structure.components)
        )
        return DirichletCharacter(self.structure, exps)

    @cached_property
    def parity(self) -> int:
        """0 for even characters (chi(-1) = 1), 1 for odd."""
        if self.q <= 2:
            return 0
        return 0 if self.evaluate(self.q - 1).is_one else 1

    @cached_property
    def conductor(self) -> int:
        """Smallest modulus through which the character factors.

        Computed blockwise: an odd p^k component of order m contributes
        p^(v_p(m) + 1) once nontrivial; the 2-adic block follows the
        <-1> x <5> decomposition.
        """
        cond = 1
        for p, k, idxs in self.structure.prime_blocks:
            if p != 2:
                (j,) = idxs
                e = self.exponents[j]
                if e == 0:
                    continue
                d = self.structure.components[j][1]
                m = d // math.gcd(e, d)
                a = 0
                while m % p == 0:
                    m //= p
                    a += 1
                cond *= p ** (a + 1)
            elif k == 2:
                if self.exponents[idxs[0]]:
                    cond *= 4
            else:
                s = self.exponents[idxs[0]]
                t = self.exponents[idxs[1]]
                if t == 0:
                    cond *= 4 if s else 1
                else:
                    v = (t & -t).bit_length() - 1
                    cond *= 2 ** (k - v)
        return cond

    @cached_property
    def is_primitive(self) -> bool:
        return self.conductor == self.q

    def primitivize(self) -> tuple[int, "DirichletCharacter"]:
        """(conductor, inducing primitive character)."""
        cond = self.conductor
        if cond == self.q:
            return cond, self
        sub = unit_group_structure(cond)
        exps = []
        for g, d in sub.components:
            n = g
            while math.gcd(n, self.q) != 1:
                n += cond
            val = self.evaluate(n)
            num = val.num * d
            if num % val.den:
                raise ArithmeticError("conductor does not divide character angle")
            exps.append((num // val.den) % d)
        induced = DirichletCharacter(sub, tuple(exps))
        return cond, induced

    @cached_property
    def complex_table(self) -> np.ndarray:
        """chi as complex doubles over residues 0..q-1 (zeros off units)."""
        q = self.q
        big = self.structure.exponent
        if q == 1:
            return np.ones(1, dtype=complex)
        num = np.zeros(q, dtype=np.int64)
        for (_, d), e, tab in zip(
            self.structure.components, self.exponents, self.structure.dlogs
        ):
            num += e * (big // d) * tab
        out = np.zeros(q, dtype=complex)
        units = self.structure.unit_mask
        out[units] = _roots_of_unity(big)[num[units] % big]
        return out


def character_group(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, principal first, in exponent order."""
    struct = unit_group_structure(q)
    ranges = [range(d) for _, d in struct.components]
    return [DirichletCharacter(struct, exps) for exps in itertools.product(*ranges)]


def primitive_characters(q: int) -> list[DirichletCharacter]:
    """Non-principal characters mod q whose conductor is exactly q."""
    return [c for c in character_group(q) if not c.is_principal and c.is_primitive]


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n), extended to all integer n."""
    if n == 0:
        return 1 if abs(d) == 1 else 0
    if d % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos % 2 == 1 and d % 8 in (3, 5):
        result = -result
    a = d % n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def is_fundamental_discriminant(q: int) -> bool:
    """True when -q is a fundamental discriminant (q > 0)."""
    if q <= 0:
        return False
    if q % 4 == 3:
        return factorize(q).squarefree
    if q % 4 == 0:
        m = q // 4
        return m % 4 in (1, 2) and factorize(m).squarefree
    return False


@dataclass(frozen=True, eq=False)
class SubgroupSpec:
    """Subgroup H of (Z/qZ)* with membership bitmask and index h = [G:H]."""

    q: int
    mask: np.ndarray
    index: int
    kind: str
    generators: tuple[int, ...] = ()

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    def contains(self, n: int) -> bool:
        return bool(self.mask[n % self.q])

    def members(self) -> list[int]:
        return [int(r) for r in np.nonzero(self.mask)[0]]


def _close_under_products(q: int, seeds: list[int]) -> np.ndarray:
    mask = np.zeros(q, dtype=bool)
    mask[1 % q] = True
    frontier = [1 % q]
    while frontier:
        nxt = []
        for m in frontier:
            for g in seeds:
                v = m * g % q
                if not mask[v]:
                    mask[v] = True
                    nxt.append(v)
        frontier = nxt
    return mask


def kth_power_subgroup(q: int, k: int) -> SubgroupSpec:
    """H = {x^k : x a unit mod q}."""
    struct = unit_group_structure(q)
    mask = np.zeros(q, dtype=bool)
    if k == 2:
        units = np.nonzero(struct.unit_mask)[0].astype(np.int64)
        mask[(units * units) % q] = True
    else:
        for r in np.nonzero(struct.unit_mask)[0]:
            mask[pow(int(r), k, q)] = True
    gens = tuple(pow(g, k, q) for g, _ in struct.components)
    size = int(mask.sum())
    return SubgroupSpec(q, mask, struct.phi // size, kind=f"powers:{k}", generators=gens)


def subgroup_from_generators(q: int, gens) -> SubgroupSpec:
    gens = [g % q for g in gens]
    for g in gens:
        if math.gcd(g, q) != 1:
            raise ValueError(f"generator {g} is not a unit mod {q}")
    struct = unit_group_structure(q)
    mask = _close_under_products(q, gens)
    size = int(mask.sum())
    if struct.phi % size:
        raise ArithmeticError("subgroup size does not divide phi(q)")
    return SubgroupSpec(q, mask, struct.phi // size, kind="generators", generators=tuple(gens))


def trivial_subgroup(q: int) -> SubgroupSpec:
    struct = unit_group_structure(q)
    mask = np.zeros(q, dtype=bool)
    mask[1 % q] = True
    return SubgroupSpec(q, mask, struct.phi, kind="trivial", generators=(1,))


def annihilator(h: SubgroupSpec, chars: list[DirichletCharacter] | None = None) -> list[DirichletCharacter]:
    """Characters mod q that are 1 on all of H; exactly [G:H] of them."""
    if chars is None:
        chars = character_group(h.q)
    gens = h.generators if h.generators else tuple(h.members())
    out = [c for c in chars if all(c.evaluate(g).is_one for g in gens)]
    if len(out) != h.index:
        raise ArithmeticError(
            f"annihilator size {len(out)} != index {h.index} for q={h.q}"
        )
    return out


def exact_root_sum(values) -> int:
    """Sum of a multiset of exact roots of unity, demanded to be integral.

    The multisets arising from character orthogonality are either all ones
    or a union of complete cyclic orbits; anything else raises.
    """
    vals = [v for v in values if not v.zero]
    if not vals:
        return 0
    if all(v.is_one for v in vals):
        return len(vals)
    den = 1
    for v in vals:
        den = math.lcm(den, v.den)
    counts = Counter(v.num * (den // v.den) % den for v in vals)
    d = len(counts)
    if den % d:
        raise ArithmeticError("root multiset is not a union of cyclic orbits")
    step = den // d
    orbit = {(k * step) % den for k in range(d)}
    if set(counts) != orbit or len(set(counts.values())) != 1:
        raise ArithmeticError("root multiset does not cancel exactly")
    return 0


def coset_indicator(h: SubgroupSpec, a: int, n: int) -> int:
    """1 if n lies in the coset aH, else 0.

    Evaluated both through the bitmask and through the exact character
    average over the annihilator group; disagreement raises.
    """
    q = h.q
    if math.gcd(a, q) != 1:
        raise NonUnitCosetError(f"a={a} is not a unit mod {q}")
    if math.gcd(n, q) != 1:
        direct = 0
    else:
        direct = int(h.contains(n * pow(a, -1, q)))
    vals = []
    for chi in annihilator(h):
        vals.append(chi.evaluate(a).conjugate() * chi.evaluate(n))
    total = exact_root_sum(vals)
    if total not in (0, h.index):
        raise ArithmeticError("character average is not 0 or h")
    averaged = total // h.index
    if averaged != direct:
        raise ArithmeticError(
            f"orthogonality average {averaged} disagrees with bitmask {direct}"
        )
    return direct


# chi_D on residues mod |D| for the 2-part D of -q when 4 | q, keyed by
# (q/4) mod 8: 1 and 5 give D = -4, 2 gives D = -8, 6 gives D = 8.
_TWO_PART_TABLES = {
    1: np.array([0, 1, 0, -1], dtype=np.int8),
    5: np.array([0, 1, 0, -1], dtype=np.int8),
    2: np.array([0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8),
    6: np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8),
}


def _legendre_table(p: int) -> np.ndarray:
    """(n/p) on residues 0..p-1 for an odd prime p, as int8."""
    tab = np.full(p, -1, dtype=np.int8)
    tab[0] = 0
    r = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    tab[r * r % p] = 1
    return tab


def kronecker_character_table(q: int) -> np.ndarray:
    """Values of n -> (-q/n) on residues 0..q-1 as a float array.

    -q must be a fundamental discriminant.  It is a product of prime
    discriminants: the 2-part (1, -4, 8 or -8) and p* = +-p for each odd
    p | q, whose character is the Legendre symbol mod p.  The table is the
    product of those periodic tables, so class-number scans never touch
    unit-group tables.
    """
    if not is_fundamental_discriminant(q):
        raise ValueError(f"-{q} is not a fundamental discriminant")
    out = np.ones(q, dtype=np.int8)
    # each local period divides q, so a local table multiplies in as a row
    # broadcast over the q/period rows of the result
    if q % 4 == 0:
        tab = _TWO_PART_TABLES[q // 4 % 8]
        out.reshape(-1, tab.size)[:] *= tab
    for p, _ in factorize(q).factors:
        if p != 2:
            out.reshape(-1, p)[:] *= _legendre_table(p)
    return out.astype(float)
