import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonresidue.arith import euler_phi, primes_up_to, unit_group_structure
from nonresidue.characters import (
    CharacterValue,
    NonUnitCosetError,
    annihilator,
    character_group,
    coset_indicator,
    exact_root_sum,
    is_fundamental_discriminant,
    kronecker,
    kronecker_character_table,
    kth_power_subgroup,
    subgroup_from_generators,
    trivial_subgroup,
)


def legendre(a: int, p: int) -> int:
    """Euler-criterion oracle for odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


# ----------------------------------------------------------------------
# values and group structure
# ----------------------------------------------------------------------


def test_character_value_arithmetic():
    a = CharacterValue.from_angle(1, 3)
    b = CharacterValue.from_angle(2, 3)
    assert (a * b).is_one
    assert a.conjugate() == b
    assert abs(a.to_complex() - complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))) < 1e-15
    assert CharacterValue.from_angle(1, 2).real_int() == -1
    assert CharacterValue(zero=True).to_complex() == 0


def test_group_sizes_and_reality():
    assert len(character_group(3)) == 2
    g8 = character_group(8)
    assert len(g8) == 4 and all(c.is_real for c in g8)
    g7 = character_group(7)
    assert len(g7) == 6
    assert sum(1 for c in g7 if c.is_real and not c.is_principal) == 1
    assert g7[0].is_principal  # principal first


def test_group_closed_under_product():
    for q in (8, 12, 15):
        chars = character_group(q)
        labels = {c.label for c in chars}
        for a in chars[:4]:
            for b in chars[:4]:
                assert (a * b).label in labels


def test_evaluate_examples():
    g6 = character_group(6)
    assert g6[0].is_principal and g6[0].evaluate(5).is_one
    for chi in g6:
        assert chi.evaluate(3).zero
    leg7 = [c for c in character_group(7) if c.is_real and not c.is_principal][0]
    assert leg7.evaluate(3).real_int() == legendre(3, 7) == -1


def test_evaluate_matches_legendre_for_prime_real_character():
    for q in (5, 11, 13, 19, 23):
        chi = [c for c in character_group(q) if c.is_real and not c.is_principal][0]
        for n in range(1, q):
            assert chi.evaluate(n).real_int() == legendre(n, q), (q, n)


def test_complex_table_matches_exact_values():
    for q in (7, 12, 16, 45):
        for chi in character_group(q):
            tab = chi.complex_table
            for n in range(q):
                assert abs(tab[n] - chi.evaluate(n).to_complex()) < 1e-14


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
                if not chi.evaluate(n).is_one:
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


def test_primitivize_agrees_on_units_and_is_idempotent():
    for q in range(3, 101):
        for chi in character_group(q):
            cond, prim = chi.primitivize()
            assert prim.q == cond == chi.conductor
            assert prim.is_primitive or cond == 1
            for n in range(1, q + 1):
                if math.gcd(n, q) == 1:
                    assert chi.evaluate(n) == prim.evaluate(n), (q, chi.label, n)
            cond2, prim2 = prim.primitivize()
            assert cond2 == cond and prim2 == prim


# ----------------------------------------------------------------------
# orthogonality
# ----------------------------------------------------------------------


def test_full_orthogonality_exact_to_200():
    # sum over all characters of chi(m) is phi(q) [m = 1]; applied at
    # m = n a^(-1) this is the (a, n) pair orthogonality, exactly
    for q in range(3, 201):
        chars = character_group(q)
        phi = euler_phi(q)
        for m in range(1, q):
            if math.gcd(m, q) != 1:
                continue
            total = exact_root_sum([c.evaluate(m) for c in chars])
            assert total == (phi if m % q == 1 else 0), (q, m)


def test_full_orthogonality_pairs_tiny_q():
    for q in (5, 8, 12):
        chars = character_group(q)
        phi = euler_phi(q)
        units = [n for n in range(1, q) if math.gcd(n, q) == 1]
        for a in units:
            for n in units:
                vals = [c.evaluate(a).conjugate() * c.evaluate(n) for c in chars]
                assert exact_root_sum(vals) == (phi if a == n else 0)


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
    with pytest.raises(NonUnitCosetError):
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
            assert h.size * h.index == euler_phi(q)


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
                assert chi.evaluate(m).is_one
