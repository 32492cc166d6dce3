"""Dirichlet characters mod q and subgroup machinery.

Characters are exponent vectors on the cyclic components of (Z/qZ)*.
A character's values are integer angles mod E = structure.exponent:
chi(n) = e(angles[n] / E), so exact questions are integer tests (angle 0
means the value is 1) and complex doubles are a gather from the E-th
roots of unity.  The twisted sums of the sec2 checklist and of lemma
5.1, and L(1, chi), read no per-character table: `character_sums` takes
the characters of a modulus 16 at a time, as the real cos and sin rows of
one block built from the dlog tables, and evaluates the whole block with
one real matrix product, in one cache for every caller.  The
per-character `angles` and `complex_table` remain for the other sums and
as the oracle for the blocks.  Also here: conductors, the Kronecker
character table of a fundamental discriminant, and subgroups of (Z/qZ)*
with membership by exponent tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .arith import DLOG_CEILING, ModulusTooLargeError, UnitGroupStructure, factorize, unit_group_structure

__all__ = [
    "DirichletCharacter",
    "SubgroupSpec",
    "character_group",
    "character_of_index",
    "character_sums",
    "is_fundamental_discriminant",
    "kth_power_subgroup",
    "primitive_characters",
    "subgroup_from_generators",
    "trivial_subgroup",
]


# Four entries of 16 E bytes (E = structure.exponent): one modulus reads
# one table, so more would only keep those of moduli already passed.
@lru_cache(maxsize=4)
def _roots_of_unity(n: int) -> np.ndarray:
    return np.exp(2j * math.pi * np.arange(n) / n)


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

    @cached_property
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

    @cached_property
    def angles(self) -> np.ndarray:
        """chi(n) = e(angles[n] / E), E = structure.exponent, as int64 over
        residues 0..q-1; -1 marks exactly the residues that are not units."""
        big = self.structure.exponent
        out = np.zeros(self.q, dtype=np.int64)
        for (_, d), e, tab in zip(
            self.structure.components, self.exponents, self.structure.dlogs
        ):
            out += e * (big // d) * tab
        out %= big
        out[~self.structure.unit_mask] = -1
        return out

    @cached_property
    def parity(self) -> int:
        """0 for even characters (chi(-1) = 1), 1 for odd: the angle at
        q - 1, read from the dlog tables without building `angles`."""
        big = self.structure.exponent
        angle = sum(
            e * (big // d) * int(tab[self.q - 1])
            for (_, d), e, tab in zip(self.structure.components, self.exponents, self.structure.dlogs)
        )
        return int(angle % big != 0)

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

    @cached_property
    def complex_table(self) -> np.ndarray:
        """chi as complex doubles over residues 0..q-1 (zeros off units)."""
        out = np.zeros(self.q, dtype=complex)
        units = self.structure.unit_mask
        out[units] = _roots_of_unity(self.structure.exponent)[self.angles[units]]
        return out


# Characters per block.  Each modulus's first checklist item builds its
# first block, so a larger block (or the whole group) lengthens that item.
_BLOCK = 16


@lru_cache(maxsize=8)
def _character_block(q: int, b: int) -> np.ndarray:
    """The characters mod q of index 16b .. 16b+15 (fewer in the last
    block) as float64 rows of shape (2n, q): row i holds cos and row n + i
    sin of the angles of the character of index 16b + i, zeros off the
    units.  The exponent digits come from the index as `index` ranks them;
    one broadcast per component sums the angles, one gather from the E-th
    roots of unity gives values bit-equal to `complex_table`.  Cached; do
    not mutate."""
    struct = unit_group_structure(q)
    big = struct.exponent
    rest = np.arange(_BLOCK * b, min(_BLOCK * (b + 1), struct.phi), dtype=np.int64)
    angles = np.zeros((rest.size, q), dtype=np.int64)
    for (_, d), tab in zip(reversed(struct.components), reversed(struct.dlogs)):
        rest, digit = np.divmod(rest, d)
        angles += (digit * (big // d))[:, None] * tab
    angles %= big
    roots = _roots_of_unity(big)
    out = np.concatenate([roots.real[angles], roots.imag[angles]])
    out[:, ~struct.unit_mask] = 0.0
    return out


# An entry is a few complex numbers per character.  The sec2 checklist
# reads five per block (four x and the Laurent data); 64 leaves room for
# a `lemma` command given many x.
@lru_cache(maxsize=64)
def _block_sums(q: int, b: int, columns, args: tuple) -> list[list[complex]]:
    """rows[i][j] = sum_r chi(r) C[r, j], C = columns(*args, q), for the
    character chi of index 16b + i mod q, as Python complex.  One real
    product: with a complex matrix numpy calls BLAS's threaded zgemv, which
    costs milliseconds per call where a real dgemm costs microseconds."""
    prod = _character_block(q, b) @ columns(*args, q)
    n = len(prod) // 2
    out = np.empty((n, prod.shape[1]), dtype=complex)
    out.real, out.imag = prod[:n], prod[n:]
    return out.tolist()


def character_sums(chi: DirichletCharacter, columns, *args) -> list[complex]:
    """[sum_r chi(r) C[r, j] for each column j of C = columns(*args, chi.q)],
    C of shape (q, k): chi's row of one product with its 16-character block,
    cached per (q, block, columns, args); do not mutate.  `columns` must be
    a module-level function, since it is part of the cache key; chi builds
    no table."""
    b, i = divmod(chi.index, _BLOCK)
    return _block_sums(chi.q, b, columns, args)[i]


def character_group(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, principal first, in exponent order."""
    struct = unit_group_structure(q)
    ranges = [range(d) for _, d in struct.components]
    return [DirichletCharacter(struct, exps) for exps in itertools.product(*ranges)]


def character_of_index(q: int, index: int) -> DirichletCharacter | None:
    """The character mod q whose `index` is the given one, or None unless
    0 <= index < phi(q): its exponents are the mixed-radix digits of the
    index over the component orders, as `_character_block` reads them."""
    struct = unit_group_structure(q)
    if not 0 <= index < struct.phi:
        return None
    digits = np.unravel_index(index, [d for _, d in struct.components])
    return DirichletCharacter(struct, tuple(map(int, digits)))


def primitive_characters(q: int) -> list[DirichletCharacter]:
    """Non-principal characters mod q of conductor q, in exponent order:
    the product of each component's primitive exponents, no conductor
    computed.  On odd p^k, e != 0 and p does not divide e when k >= 2; on
    4, e = 1; on 2^k, k >= 3, either sign and an odd exponent on <5>.
    None when 2 || q or q = 1."""
    struct = unit_group_structure(q)
    if q == 1 or q % 4 == 2:
        return []
    choices = []
    for p, k, idxs in struct.prime_blocks:
        d = struct.components[idxs[-1]][1]
        if p != 2:
            choices.append([e for e in range(1, d) if k == 1 or e % p])
        else:
            choices += [range(2)] * (k > 2) + [range(1, d, 2)]
    return [DirichletCharacter(struct, exps) for exps in itertools.product(*choices)]


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
    """Subgroup H of (Z/qZ)* of index h = [G:H].

    k-th powers and {1} are exponent tests: n is in H when n^e = 1 (mod m)
    for each (m, e) in `tests`, with no O(q) table.  A subgroup given by
    generators carries its bitmask `mask`; for the other kinds `mask` is
    built on first read, for q <= DLOG_CEILING.
    """

    q: int
    index: int
    kind: str
    tests: tuple[tuple[int, int], ...] = ()

    def contains(self, n: int) -> bool:
        if self.kind == "generators":
            return bool(self.mask[n % self.q])
        for m, e in self.tests:  # not all(): searches call this once per prime
            if pow(n, e, m) != 1:
                return False
        return True

    @cached_property
    def mask(self) -> np.ndarray:
        """Membership of residues 0..q-1, each test tiled over a (q/m, m) view."""
        if self.q > DLOG_CEILING:
            raise ModulusTooLargeError(f"q={self.q} exceeds dlog-table ceiling {DLOG_CEILING}")
        out = np.ones(self.q, dtype=bool)
        for m, e in self.tests:
            out.reshape(-1, m)[:] &= _power_table(m, e) == 1
        return out

    def members(self) -> list[int]:
        return np.flatnonzero(self.mask).tolist()


def _power_table(m: int, e: int) -> np.ndarray:
    """r^e mod m for r = 0..m-1, square and multiply in place in int64
    (m <= DLOG_CEILING, so products fit): two arrays of size m."""
    base = np.arange(m, dtype=np.int64)
    out = np.ones(m, dtype=np.int64)
    while e:
        if e & 1:
            out *= base
            out %= m
        base *= base
        base %= m
        e >>= 1
    return out


def kth_power_subgroup(q: int, k: int) -> SubgroupSpec:
    """H = {x^k : x a unit mod q}, tested at each prime power p^a || q.

    Odd p: (Z/p^aZ)* is cyclic of order phi, so the k-th powers are the n
    with n^(phi/g) = 1, g = gcd(k, phi), of index g.  p = 2: (Z/2^aZ)* is
    <-1> x <5>, <5> = {n = 1 mod 4} of order 2^(a-2); for even k the k-th
    powers are the n = 1 (mod 4) with n^(2^(a-2)/g') = 1, g' =
    gcd(k, 2^(a-2)), of index 2 g'; for odd k or a = 1, all odd n.
    """
    tests: list[tuple[int, int]] = []
    index = 1
    for p, a in factorize(q).factors:
        pa = p**a
        if p != 2:
            phi = pa // p * (p - 1)
            g = math.gcd(k, phi)
            tests.append((pa, phi // g))
            index *= g
        elif k % 2 or a == 1:
            tests.append((2, 1))
        else:
            tests.append((4, 1))
            index *= 2
            if a >= 3:
                g = math.gcd(k, pa // 4)
                tests.append((pa, pa // 4 // g))
                index *= g
    return SubgroupSpec(q, index, f"powers:{k}", tuple(tests))


def subgroup_from_generators(q: int, gens) -> SubgroupSpec:
    """H = <gens>, one generator g at a time, by doubling: after t steps
    the mask is H{g^i : i < 2^t}, which is H<g> exactly when g^(2^t) lies
    in it, so about log2 of g's order mod H steps, not that order."""
    for g in gens:
        if math.gcd(g, q) != 1:
            raise ValueError(f"generator {g} is not a unit mod {q}")
    gens = [g % q for g in gens]
    struct = unit_group_structure(q)
    mask = np.zeros(q, dtype=bool)
    mask[1 % q] = True
    for g in gens:
        while not mask[g]:
            mask[np.flatnonzero(mask) * g % q] = True
            g = g * g % q
    size = int(mask.sum())
    if struct.phi % size:
        raise ArithmeticError("subgroup size does not divide phi(q)")
    h = SubgroupSpec(q, struct.phi // size, "generators")
    vars(h)["mask"] = mask  # the bitmask is this kind's membership rule
    return h


def trivial_subgroup(q: int) -> SubgroupSpec:
    """H = {1}, the 0-th powers: its tests read n = 1 modulo each p^a || q."""
    return replace(kth_power_subgroup(q, 0), kind="trivial")


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
