import cmath
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonresidue import characters
from nonresidue.arith import ModulusTooLargeError, euler_phi, is_prime, primes_up_to, unit_group_structure
from nonresidue.characters import (
    DirichletCharacter,
    SubgroupSpec,
    _character_block,
    character_group,
    character_of_index,
    is_fundamental_discriminant,
    kronecker_character_table,
    kth_power_subgroup,
    primitive_characters,
    subgroup_from_generators,
    trivial_subgroup,
)
from nonresidue.lfunctions import l_at_1


def legendre(a: int, p: int) -> int:
    """Euler-criterion oracle for odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


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


def real_value(chi: DirichletCharacter, n: int) -> int:
    """chi(n) as an integer in {-1, 0, 1}; requires a real value."""
    angle = int(chi.angles[n % chi.q])
    if angle == -1:
        return 0
    if angle == 0:
        return 1
    if 2 * angle == chi.structure.exponent:
        return -1
    raise ValueError("character value is not real")


def scalar_angle(chi: DirichletCharacter, n: int) -> int:
    """chi(n)'s angle from the per-residue dlog vector, one n at a time."""
    struct = chi.structure
    if not struct.unit_mask[n % struct.q]:
        return -1
    big = struct.exponent
    dlog = (int(t[n % struct.q]) for t in struct.dlogs)
    return sum(e * (big // d) * k for (_, d), e, k in zip(struct.components, chi.exponents, dlog)) % big


def conjugate(chi: DirichletCharacter) -> DirichletCharacter:
    return DirichletCharacter(chi.structure, tuple(-e % d for e, (_, d) in zip(chi.exponents, chi.structure.components)))


def primitivize(chi: DirichletCharacter) -> tuple[int, DirichletCharacter]:
    """(conductor, inducing primitive character): the angle of each
    generator of (Z/cond Z)*, read at a lift of it coprime to q."""
    cond = chi.conductor
    if cond == chi.q:
        return cond, chi
    sub = unit_group_structure(cond)
    big = chi.structure.exponent
    exps = []
    for g, d in sub.components:
        n = g
        while math.gcd(n, chi.q) != 1:
            n += cond
        num = int(chi.angles[n % chi.q]) * d
        if num % big:
            raise ArithmeticError("conductor does not divide character angle")
        exps.append((num // big) % d)
    return cond, DirichletCharacter(sub, tuple(exps))


def exact_root_sum(angles, big: int) -> int:
    """Sum of e(a / big) over a multiset of angles (-1 marks a zero value),
    demanded to be integral.

    The multisets arising from character orthogonality are either all
    ones or complete orbits of the d-th roots of unity, each root hit
    equally often; anything else raises.
    """
    angles = np.asarray(angles)
    counts = np.bincount(angles[angles >= 0], minlength=big)
    if not counts[1:].any():
        return int(counts[0])
    hit = np.flatnonzero(counts)
    d = hit.size
    if big % d or not np.array_equal(hit, np.arange(d) * (big // d)):
        raise ArithmeticError("root multiset is not a union of cyclic orbits")
    if len(set(counts[hit].tolist())) != 1:
        raise ArithmeticError("root multiset does not cancel exactly")
    return 0


def annihilator(h: SubgroupSpec) -> list[DirichletCharacter]:
    """Characters mod q that are 1 on all of H; exactly [G:H] of them."""
    members = h.members()
    out = [c for c in character_group(h.q) if all(c.angles[m] == 0 for m in members)]
    if len(out) != h.index:
        raise ArithmeticError(f"annihilator size {len(out)} != index {h.index} for q={h.q}")
    return out


def coset_indicator(h: SubgroupSpec, a: int, n: int) -> int:
    """1 if n lies in the coset aH, else 0.

    Computed both through the bitmask and through the exact character
    average over the annihilator group; disagreement raises.
    """
    q = h.q
    if math.gcd(a, q) != 1:
        raise ValueError(f"a={a} is not a unit mod {q}")
    big = unit_group_structure(q).exponent
    ann = annihilator(h)
    if math.gcd(n, q) != 1:
        direct = 0
        vals = [-1] * len(ann)  # chi(n) = 0
    else:
        direct = int(h.contains(n * pow(a, -1, q)))
        vals = [(c.angles[n % q] - c.angles[a % q]) % big for c in ann]  # conj(chi(a)) chi(n)
    total = exact_root_sum(vals, big)
    if total not in (0, h.index):
        raise ArithmeticError("character average is not 0 or h")
    averaged = total // h.index
    if averaged != direct:
        raise ArithmeticError(f"orthogonality average {averaged} disagrees with bitmask {direct}")
    return direct


# ----------------------------------------------------------------------
# values and group structure
# ----------------------------------------------------------------------


def test_character_value_arithmetic():
    g7 = character_group(7)  # one cyclic component of order E = 6
    a, b = g7[2], g7[4]  # the two cubic characters: angles in {0, 2, 4}
    big = a.structure.exponent
    assert big == 6
    assert np.all((a.angles[1:] + b.angles[1:]) % big == 0)  # a * b is principal
    assert np.array_equal(conjugate(a).angles, b.angles)
    n = int(np.flatnonzero(a.angles == 2)[0])  # a(n) = e(1/3)
    assert abs(a.complex_table[n] - complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))) < 1e-15
    leg7 = g7[3]
    assert leg7.angles[3] == big // 2 and real_value(leg7, 3) == -1
    assert a.angles[0] == -1 and a.complex_table[0] == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(q=st.integers(1, 10**4), data=st.data())
def test_angles_are_a_homomorphism_into_the_exponent_circle(q, data):
    struct = unit_group_structure(q)
    exps = tuple(data.draw(st.integers(0, d - 1), label=f"e{j}") for j, (_, d) in enumerate(struct.components))
    chi = DirichletCharacter(struct, exps)
    big = struct.exponent
    angles = chi.angles
    units = struct.unit_mask
    # -1 exactly off the units, a residue mod E on them
    assert angles.dtype == np.int64 and angles.shape == (q,)
    assert np.array_equal(angles == -1, ~units)
    assert np.all((angles[units] >= 0) & (angles[units] < big))
    # chi(m n) = chi(m) chi(n) on units
    u = np.flatnonzero(units)
    for m in data.draw(st.lists(st.sampled_from(u.tolist()), min_size=1, max_size=4), label="m"):
        assert np.array_equal(angles[m * u % q], (angles[m] + angles[u]) % big), m
    conj = conjugate(chi).angles
    assert np.array_equal(conj[units], (-angles[units]) % big)
    assert np.array_equal(conj == -1, ~units)
    want = np.zeros(q, dtype=complex)
    want[units] = np.exp(2j * np.pi * angles[units] / big)
    assert np.array_equal(chi.complex_table, want)
    assert chi.order == big // math.gcd(big, int(np.gcd.reduce(angles[units])))


def test_parity_is_the_angle_at_minus_one():
    for q in range(1, 301):
        for chi in character_group(q):
            assert chi.parity == int(chi.angles[q - 1] != 0), chi.label


@pytest.mark.parametrize("q", [1, 8, 97, 210, 240, 300])
def test_character_block_rows_are_the_complex_tables(q):
    chars = character_group(q)
    for b in range(-(-len(chars) // 16)):
        block = _character_block(q, b)
        rows = chars[16 * b : 16 * b + 16]
        assert block.dtype == np.float64 and block.shape == (2 * len(rows), q)
        for i, chi in enumerate(rows):
            assert np.array_equal(block[i], chi.complex_table.real), chi.label
            assert np.array_equal(block[len(rows) + i], chi.complex_table.imag), chi.label


def test_group_sizes_and_reality():
    assert len(character_group(3)) == 2
    g8 = character_group(8)
    assert len(g8) == 4 and all(c.is_real for c in g8)
    g7 = character_group(7)
    assert len(g7) == 6
    assert sum(1 for c in g7 if c.is_real and not c.is_principal) == 1
    assert g7[0].is_principal  # principal first


def test_group_closed_under_product():
    # chi psi has angles chi + psi mod E on the units; some character mod q has them
    for q in (8, 12, 15):
        chars = character_group(q)
        units = chars[0].structure.unit_mask
        big = chars[0].structure.exponent
        tables = {c.angles[units].tobytes() for c in chars}
        for a in chars[:4]:
            for b in chars[:4]:
                assert ((a.angles[units] + b.angles[units]) % big).tobytes() in tables


def test_evaluate_examples():
    g6 = character_group(6)
    assert g6[0].is_principal and g6[0].angles[5] == 0
    for chi in g6:
        assert chi.angles[3] == -1 and chi.complex_table[3] == 0
    leg7 = [c for c in character_group(7) if c.is_real and not c.is_principal][0]
    assert real_value(leg7, 3) == legendre(3, 7) == -1


def test_evaluate_matches_legendre_for_prime_real_character():
    for q in (5, 11, 13, 19, 23):
        chi = [c for c in character_group(q) if c.is_real and not c.is_principal][0]
        for n in range(1, q):
            assert real_value(chi, n) == legendre(n, q), (q, n)


def test_complex_table_matches_exact_values():
    for q in (7, 12, 16, 45):
        for chi in character_group(q):
            tab = chi.complex_table
            big = chi.structure.exponent
            for n in range(q):
                angle = scalar_angle(chi, n)
                assert chi.angles[n] == angle
                exact = 0 if angle < 0 else cmath.exp(2j * math.pi * angle / big)
                assert abs(tab[n] - exact) < 1e-14


# ----------------------------------------------------------------------
# Kronecker symbol
# ----------------------------------------------------------------------


def test_kronecker_examples():
    assert kronecker(-4, 3) == -1
    assert kronecker(-7, 2) == 1  # 2 = 3^2 mod 7 is a residue
    assert legendre(2, 7) == 1
    for d in (-11, -4, 5, 12, -1):
        assert kronecker(d, 1) == 1


def test_kronecker_completely_multiplicative():
    rng = np.random.default_rng(3)
    for _ in range(300):
        d = int(rng.integers(-60, 60))
        m = int(rng.integers(1, 80))
        n = int(rng.integers(1, 80))
        assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n), (d, m, n)


def test_kronecker_is_legendre_on_odd_primes():
    for p in (3, 5, 7, 11, 13, 17, 19):
        for d in range(-30, 31):
            if d % p == 0:
                assert kronecker(d, p) == 0
            else:
                assert kronecker(d, p) == legendre(d, p), (d, p)


def test_kronecker_character_is_primitive_and_odd():
    # for fundamental -q the map n -> (-q/n) matches a character mod q
    # with parity 1 and conductor q
    count = 0
    for q in range(3, 501):
        if not is_fundamental_discriminant(q):
            continue
        count += 1
        table = kronecker_character_table(q)
        match = None
        for chi in character_group(q):
            if not chi.is_real:
                continue
            vals = chi.complex_table.real
            if np.allclose(vals, table, atol=1e-12):
                match = chi
                break
        assert match is not None, q
        assert match.parity == 1
        assert match.conductor == q
    assert count > 100


def legendre_by_euler(a: np.ndarray, p: int) -> np.ndarray:
    """(a/p) elementwise for an odd prime p: a^((p-1)/2) mod p."""
    base = a % p
    r = np.ones_like(base)
    e = (p - 1) // 2
    while e:
        if e & 1:
            r = r * base % p
        base = base * base % p
        e >>= 1
    return np.where(r == p - 1, -1, r)


def test_kronecker_table_matches_euler_criterion():
    # for every fundamental q <= 2*10^4: the table at each odd prime p < q
    # is (-q/p) by Euler's criterion, at 2 it is (-q/2) from -q mod 8, and
    # it vanishes exactly where gcd(n, q) > 1; q < 1000 is compared with
    # kronecker at every n
    qs = np.array([q for q in range(3, 20_001) if is_fundamental_discriminant(q)])
    assert len(qs) == 6079
    primes = primes_up_to(20_000)
    odd = primes[1:]
    at_primes = np.zeros((len(qs), len(odd)), dtype=np.int8)
    for i, q in enumerate(map(int, qs)):
        table = kronecker_character_table(q)
        below = odd[: np.searchsorted(odd, q)]
        at_primes[i, : len(below)] = table[below]
        assert table[2 % q] == (0 if q % 2 == 0 else (1 if -q % 8 in (1, 7) else -1)), q
        shares_factor = np.zeros(q, dtype=bool)
        for p in primes[q % primes == 0]:
            shares_factor[::p] = True
        assert np.array_equal(table == 0, shares_factor), q
        if q < 1000:
            assert table.tolist() == [kronecker(-q, n) for n in range(q)], q
    for j, p in enumerate(map(int, odd)):
        above = qs > p
        assert np.array_equal(at_primes[above, j], legendre_by_euler(-qs[above], p)), p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    q=st.integers(3, 10**6).filter(is_fundamental_discriminant),
    ns=st.lists(st.integers(1, 10**18), min_size=1, max_size=20),
)
def test_kronecker_table_is_the_kronecker_symbol(q, ns):
    table = kronecker_character_table(q)
    for n in ns:
        assert table[n % q] == kronecker(-q, n), (q, n)


def test_kronecker_table_rejects_non_fundamental_q():
    for q in (1, 2, 5, 9, 12, 16, 18, 27, 10**6):
        with pytest.raises(ValueError):
            kronecker_character_table(q)


def test_fundamental_discriminant_classification():
    assert is_fundamental_discriminant(3)
    assert is_fundamental_discriminant(4)
    assert is_fundamental_discriminant(7)
    assert is_fundamental_discriminant(8)
    assert is_fundamental_discriminant(20)
    assert is_fundamental_discriminant(24)
    assert not is_fundamental_discriminant(9)
    assert not is_fundamental_discriminant(12)
    assert not is_fundamental_discriminant(18)
    assert not is_fundamental_discriminant(5)  # -5 = 3 mod 4
    assert not is_fundamental_discriminant(27)


# ----------------------------------------------------------------------
# conductor and primitivization
# ----------------------------------------------------------------------


def brute_conductor(chi) -> int:
    """Divisor-scan oracle: least d | q with chi trivial on units = 1 mod d."""
    from nonresidue.arith import factorize

    q = chi.q
    for d in factorize(q).divisors():
        ok = True
        for n in range(1, q + 1):
            if n % d == 1 % d and math.gcd(n, q) == 1:
                if chi.angles[n % q] != 0:
                    ok = False
                    break
        if ok:
            return d
    return q


def test_conductor_examples():
    g12 = character_group(12)
    assert g12[0].conductor == 1
    g6 = character_group(6)
    nonprincipal = [c for c in g6 if not c.is_principal][0]
    assert nonprincipal.conductor == 3
    for q in (5, 7, 11, 13):
        for chi in character_group(q):
            if not chi.is_principal:
                assert chi.conductor == q


def test_conductor_formula_matches_divisor_scan():
    for q in range(3, 61):
        for chi in character_group(q):
            assert chi.conductor == brute_conductor(chi), (q, chi.label)


def assert_primitive_characters_are_the_conductor_filter(qs) -> None:
    for q in qs:
        want = [c.exponents for c in character_group(q) if not c.is_principal and c.is_primitive]
        assert [c.exponents for c in primitive_characters(q)] == want, q


PRIMITIVE_MODULI = (2**10, 2**12 * 3, 3**7, 4 * 7**4)


def test_primitive_characters_are_the_conductor_filter():
    assert_primitive_characters_are_the_conductor_filter([*range(1, 401), *PRIMITIVE_MODULI])


@pytest.mark.slow
def test_primitive_characters_are_the_conductor_filter_exhaustive():
    assert_primitive_characters_are_the_conductor_filter(range(1, 3001))


def test_character_of_index_is_the_group_entry():
    for q in (1, 2, 8, 40, 97, 240, 1000):
        group = character_group(q)
        assert [character_of_index(q, i) for i in range(len(group))] == group, q
        assert character_of_index(q, -1) is None and character_of_index(q, len(group)) is None, q


def test_root_tables_stay_few():
    # one modulus reads one root table, so the cache holds the last few,
    # not one per modulus visited
    qs = [q for q in range(20011, 21000) if is_prime(q)][:12]
    characters._roots_of_unity.cache_clear()
    lines, first = inspect.getsourcelines(characters._roots_of_unity.__wrapped__)
    tracemalloc.start()
    try:
        for q in qs:
            l_at_1(DirichletCharacter(unit_group_structure(q), (1,)))
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    roots = [tracemalloc.Filter(True, characters.__file__, n) for n in range(first, first + len(lines))]
    live = sum(t.size for t in snapshot.filter_traces(roots).traces)
    assert 0 < live < 5 * 16 * qs[-1], live


def test_primitivize_agrees_on_units_and_is_idempotent():
    for q in range(3, 101):
        for chi in character_group(q):
            cond, prim = primitivize(chi)
            assert prim.q == cond == chi.conductor
            assert prim.is_primitive or cond == 1
            for n in range(1, q + 1):
                if math.gcd(n, q) == 1:
                    # equal fractions of a turn: angle / E on each side
                    left = int(chi.angles[n % q]) * prim.structure.exponent
                    right = int(prim.angles[n % cond]) * chi.structure.exponent
                    assert left == right, (q, chi.label, n)
            cond2, prim2 = primitivize(prim)
            assert cond2 == cond and prim2 == prim


# ----------------------------------------------------------------------
# orthogonality
# ----------------------------------------------------------------------


def test_full_orthogonality_exact_to_200():
    # sum over all characters of chi(m) is phi(q) [m = 1]; applied at
    # m = n a^(-1) this is the (a, n) pair orthogonality, exactly; all
    # characters mod q share E, so the sum is a histogram of their angles
    for q in range(3, 201):
        chars = character_group(q)
        phi = euler_phi(q)
        big = unit_group_structure(q).exponent
        angles = np.array([c.angles for c in chars])
        for m in range(1, q):
            if math.gcd(m, q) != 1:
                continue
            total = exact_root_sum(angles[:, m], big)
            assert total == (phi if m % q == 1 else 0), (q, m)


def test_full_orthogonality_pairs_tiny_q():
    for q in (5, 8, 12):
        chars = character_group(q)
        phi = euler_phi(q)
        big = unit_group_structure(q).exponent
        units = [n for n in range(1, q) if math.gcd(n, q) == 1]
        for a in units:
            for n in units:
                vals = [(c.angles[n] - c.angles[a]) % big for c in chars]  # conj(chi(a)) chi(n)
                assert exact_root_sum(vals, big) == (phi if a == n else 0)


def _cyclic_subgroups(q):
    struct = unit_group_structure(q)
    units = [n for n in range(1, q) if math.gcd(n, q) == 1]
    seen = set()
    out = []
    for g in units:
        h = subgroup_from_generators(q, [g])
        key = tuple(h.members())
        if key not in seen:
            seen.add(key)
            out.append(h)
    return out


def test_coset_orthogonality_one_generator_subgroups():
    for q in range(3, 41):
        units = [n for n in range(1, q) if math.gcd(n, q) == 1]
        for h in _cyclic_subgroups(q):
            for a in units[:4]:
                for n in range(q):
                    want = 0
                    if math.gcd(n, q) == 1:
                        want = int(h.contains(n * pow(a, -1, q)))
                    assert coset_indicator(h, a, n) == want, (q, h.kind, a, n)


def test_coset_orthogonality_sampled_large_q():
    rng = np.random.default_rng(9)
    for q in (60, 97, 144, 200):
        units = [n for n in range(1, q) if math.gcd(n, q) == 1]
        gens = rng.choice(units, size=3, replace=False)
        for g in map(int, gens):
            h = subgroup_from_generators(q, [g])
            for _ in range(8):
                a = int(rng.choice(units))
                n = int(rng.integers(0, q))
                want = 0
                if math.gcd(n, q) == 1:
                    want = int(h.contains(n * pow(a, -1, q)))
                assert coset_indicator(h, a, n) == want


def test_coset_indicator_examples():
    h1 = trivial_subgroup(8)
    assert coset_indicator(h1, 3, 3) == 1
    assert coset_indicator(h1, 3, 5) == 0
    qr7 = kth_power_subgroup(7, 2)
    assert coset_indicator(qr7, 3, 5) == 1  # 5 * 3^-1 = 4 in H
    with pytest.raises(ValueError):
        coset_indicator(qr7, 7, 3)


# ----------------------------------------------------------------------
# subgroups and annihilators
# ----------------------------------------------------------------------


def test_subgroup_invariants():
    for q in (7, 8, 12, 13, 45):
        for k in (2, 3):
            h = kth_power_subgroup(q, k)
            assert h.contains(1)
            members = h.members()
            for x in members[:6]:
                for y in members[:6]:
                    assert h.contains(x * y % q)
            assert len(members) * h.index == euler_phi(q)


POWER_KS = (2, 3, 4, 5, 6, 8, 12)


def kth_powers_reference(q: int, ks=POWER_KS) -> dict[int, np.ndarray]:
    """k -> bitmask of {u^k : u a unit mod q}, multiplying the units into a
    running power once per step up to max(ks)."""
    residues = np.arange(q, dtype=np.int64)
    units = residues[np.gcd(residues, q) == 1]
    power = np.ones_like(units) % q
    out = {}
    for k in range(1, max(ks) + 1):
        power = power * units % q
        if k in ks:
            out[k] = np.zeros(q, dtype=bool)
            out[k][power] = True
    return out


def assert_subgroup_is(h: SubgroupSpec, ref: np.ndarray, residues) -> None:
    """h's mask and index match the reference set; `contains` matches it at
    the given residues (any integers; reduced mod q for the lookup)."""
    q = h.q
    assert np.array_equal(h.mask, ref), (q, h.kind)
    assert h.index * int(ref.sum()) == euler_phi(q), (q, h.kind)
    members = ref.tolist()
    for n in residues:
        assert h.contains(n) == members[n % q], (q, h.kind, n)


def _sampled_residues(q: int, rng) -> list[int]:
    """Every residue for small q; else 10 integers of either sign and up to 10 q."""
    if q <= 300:
        return range(q)
    return [int(n) for n in rng.integers(-10 * q, 10 * q, size=10)]


def test_kth_power_subgroup_matches_units_to_the_k():
    rng = np.random.default_rng(4)
    for q in range(1, 3001):
        for k, ref in kth_powers_reference(q).items():
            assert_subgroup_is(kth_power_subgroup(q, k), ref, _sampled_residues(q, rng))
    for a in range(1, 17):
        q = 2**a
        for k, ref in kth_powers_reference(q).items():
            assert_subgroup_is(kth_power_subgroup(q, k), ref, range(q) if a <= 12 else _sampled_residues(q, rng))


def test_trivial_subgroup_is_one_alone():
    rng = np.random.default_rng(5)
    for q in range(1, 3001):
        ref = np.arange(q) == 1 % q
        assert_subgroup_is(trivial_subgroup(q), ref, _sampled_residues(q, rng))


@pytest.mark.slow
def test_kth_power_contains_matches_units_to_the_k_everywhere():
    # `contains` at every residue of every q <= 3000 (tier-1 samples it above 300)
    for q in range(1, 3001):
        for k, ref in kth_powers_reference(q).items():
            assert_subgroup_is(kth_power_subgroup(q, k), ref, range(q))
        assert_subgroup_is(trivial_subgroup(q), np.arange(q) == 1 % q, range(q))


def closure_one_coset_at_a_time(q: int, gens) -> np.ndarray:
    """The mask of <gens> mod q, one coset g^j H per step for each generator g."""
    h = {1 % q}
    for g in gens:
        members, x = list(h), g % q
        while x not in h:
            h.update(m * x % q for m in members)
            x = x * g % q
    mask = np.zeros(q, dtype=bool)
    mask[list(h)] = True
    return mask


def test_generator_closure_matches_one_coset_at_a_time():
    rng = np.random.default_rng(11)
    for q in range(1, 301):
        units = [g for g in range(q) if math.gcd(g, q) == 1]
        pairs = [(a, b) for a in units for b in units] if q <= 24 else rng.choice(units, size=(20, 2)).tolist()
        for gens in [[g] for g in units] + pairs:
            assert np.array_equal(subgroup_from_generators(q, gens).mask, closure_one_coset_at_a_time(q, gens)), (q, gens)


def test_kth_power_subgroup_needs_no_table():
    q = 1000000000000037  # prime, far above the ceiling of any O(q) table
    h = kth_power_subgroup(q, 2)
    assert h.index == 2 and h.tests == ((q, (q - 1) // 2),)
    assert not h.contains(2) and h.contains(4) and h.contains(-1) == (q % 4 == 1)
    with pytest.raises(ModulusTooLargeError):
        h.mask
    assert kth_power_subgroup(2**62, 8).index == 2 * 8


def test_annihilator_examples():
    qr7 = kth_power_subgroup(7, 2)
    ann = annihilator(qr7)
    assert len(ann) == 2
    assert {c.order for c in ann} == {1, 2}
    full = subgroup_from_generators(7, [3])
    assert len(annihilator(full)) == 1
    cubes13 = kth_power_subgroup(13, 3)
    assert set(cubes13.members()) == {1, 5, 8, 12}
    ann3 = annihilator(cubes13)
    assert len(ann3) == 3
    assert all(c.order in (1, 3) for c in ann3)


def test_annihilator_values_are_one_on_subgroup():
    for q in (15, 16, 21):
        h = kth_power_subgroup(q, 2)
        for chi in annihilator(h):
            for m in h.members():
                assert chi.angles[m] == 0
