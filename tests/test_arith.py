import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonresidue import bounds
from nonresidue.arith import (
    ModulusTooLargeError,
    euler_phi,
    factorize,
    is_prime,
    primes_up_to,
    unit_group_structure,
    von_mangoldt,
)


def trial_division(n: int) -> list[tuple[int, int]]:
    """Independent factorization oracle."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(3000).factors == tuple(trial_division(3000))


def test_factorize_invariants_random():
    rng = np.random.default_rng(7)
    for n in rng.integers(2, 10**12, size=60):
        n = int(n)
        fac = factorize(n)
        prod = 1
        prev = 0
        for p, e in fac.factors:
            assert p > prev and is_prime(p)
            prev = p
            prod *= p**e
        assert prod == n


def test_factorization_accessors():
    fac = factorize(360)  # 2^3 3^2 5
    assert fac.omega == 3
    assert fac.phi == 96
    assert not fac.squarefree
    assert fac.divisors()[:6] == [1, 2, 3, 4, 5, 6]
    assert factorize(30).squarefree


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert is_prime(1000000007) == trial_is_prime(1000000007)


def test_is_prime_exhaustive_small():
    limit = 200_000
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    for n in range(limit + 1):
        assert is_prime(n) == bool(sieve[n]), n


def test_is_prime_large_samples():
    rng = np.random.default_rng(11)
    for n in rng.integers(10**6, 10**7, size=2000):
        assert is_prime(int(n)) == trial_is_prime(int(n)), n
    # strong pseudoprimes to small bases
    assert not is_prime(3215031751)  # 151 * 751 * 28351
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)


def test_von_mangoldt():
    assert von_mangoldt(8) == pytest.approx(math.log(2), abs=0)
    assert von_mangoldt(6) == 0.0
    assert von_mangoldt(97) == pytest.approx(math.log(97))
    assert von_mangoldt(1) == 0.0


def test_psi_consistency_with_sieve():
    # sum of Lambda(n) over n <= x against an independent prime-power count
    x = 10**6
    ps = primes_up_to(x)
    direct = math.fsum(
        math.floor(math.log(x) / math.log(p) + 1e-12) * math.log(p) for p in map(int, ps)
    )
    from nonresidue.explicit_formula import prime_power_table

    t = prime_power_table(x)
    cut = np.searchsorted(t.n, x, side="right")
    tabled = math.fsum(t.lam[:cut])
    assert tabled == pytest.approx(direct, rel=1e-12)
    # scalar von_mangoldt agrees with the table entries
    idx = {int(n): i for i, n in enumerate(t.n[:3000])}
    for n in range(2, 3000):
        lam = von_mangoldt(n)
        if n in idx:
            assert lam == pytest.approx(float(t.lam[idx[n]]), rel=1e-15)
        else:
            assert lam == 0.0


def test_unit_group_examples():
    s7 = unit_group_structure(7)
    assert s7.components == ((3, 6),)
    # brute-force order check
    order = 1
    v = 3
    while v != 1:
        v = v * 3 % 7
        order += 1
    assert order == 6

    s8 = unit_group_structure(8)
    assert sorted(d for _, d in s8.components) == [2, 2]
    # every unit is uniquely (-1)^a 5^b
    seen = set()
    for a in range(2):
        for b in range(2):
            seen.add(pow(7, a, 8) * pow(5, b, 8) % 8)
    assert seen == {1, 3, 5, 7}

    s4 = unit_group_structure(4)
    assert s4.components == ((3, 2),)


def test_unit_group_invariants_all_small_q():
    for q in range(3, 2001):
        s = unit_group_structure(q)
        prod = 1
        for _, d in s.components:
            prod *= d
        assert prod == s.phi == euler_phi(q), q
        units = np.nonzero(s.unit_mask)[0]
        assert len(units) == s.phi
        for n in map(int, units):
            assert s.from_exponents(s.dlog(n)) == n, (q, n)


def reference_tables(struct):
    """dlog tables and unit mask by the per-element loop that built them
    eagerly before the numpy build; the oracle for `dlogs` and `unit_mask`."""
    q = struct.q
    local = []
    for p, k, idxs in struct.prime_blocks:
        pk = p**k
        if p == 2 and k >= 3:
            half = pk // 4
            t_sign = np.full(pk, -1, dtype=np.int64)
            t_five = np.full(pk, -1, dtype=np.int64)
            v = 1
            for b in range(half):
                t_sign[v], t_five[v] = 0, b
                w = pk - v
                t_sign[w], t_five[w] = 1, b
                v = v * 5 % pk
            local += [(pk, t_sign), (pk, t_five)]
        else:
            (j,) = idxs
            g, order = struct.components[j]
            tab = np.full(pk, -1, dtype=np.int64)
            v = 1
            for i in range(order):
                tab[v] = i
                v = v * g % pk
            local.append((pk, tab))
    residues = np.arange(q, dtype=np.int64)
    dlogs = tuple(tab[residues % pk] for pk, tab in local)
    unit_mask = np.gcd(residues, q) == 1 if q > 1 else np.ones(1, dtype=bool)
    return dlogs, unit_mask


def assert_tables_match_reference(qs):
    for q in qs:
        # Uncached, so the check builds every table itself and keeps none.
        s = unit_group_structure.__wrapped__(q)
        dlogs, unit_mask = reference_tables(s)
        assert s.unit_mask.dtype == unit_mask.dtype and np.array_equal(s.unit_mask, unit_mask), q
        assert len(s.dlogs) == len(dlogs) == len(s.components), q
        for got, want in zip(s.dlogs, dlogs):
            assert got.dtype == want.dtype and np.array_equal(got, want), q


def test_dlog_tables_match_reference_loop():
    odd_squares = [int(p) ** 2 for p in primes_up_to(199)[1:]]
    powers = [2**k for k in range(1, 21)] + [3**k for k in range(1, 13)]
    assert_tables_match_reference(list(range(1, 3001)) + powers + odd_squares)


@pytest.mark.slow
def test_dlog_tables_match_reference_loop_exhaustive():
    assert_tables_match_reference(range(1, 20_001))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(q=st.integers(1, 10**6), ns=st.lists(st.integers(0, 10**12), min_size=1, max_size=20))
def test_dlog_round_trip(q, ns):
    s = unit_group_structure.__wrapped__(q)
    for n in ns:
        if math.gcd(n, q) == 1:
            exps = s.dlog(n)
            assert all(0 <= e < d for e, (_, d) in zip(exps, s.components)), (q, n)
            assert s.from_exponents(exps) == n % q, (q, n)
        else:
            assert not s.is_unit(n)
        # A component's table reads -1 exactly where n shares its prime.
        for p, _, idxs in s.prime_blocks:
            for j in idxs:
                assert (int(s.dlogs[j][n % q]) == -1) == (n % p == 0), (q, n, p)


def test_searches_build_no_dlog_tables():
    unit_group_structure.cache_clear()
    for q in (3001, 3003, 4096, 5000, 7919):
        bounds.verify_subgroup(q)
        assert "dlogs" not in unit_group_structure(q).__dict__, q
    for q in (4, 10, 64, 105, 2000):
        bounds.verify_ap(q)
        assert "dlogs" not in unit_group_structure(q).__dict__, q


def test_subgroup_scan_memory_stays_small():
    unit_group_structure.cache_clear()
    tracemalloc.start()
    try:
        for q in range(3000, 4001):
            bounds.verify_subgroup(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_unit_group_ceiling():
    with pytest.raises(ModulusTooLargeError):
        unit_group_structure(101, ceiling=100)


def test_primes_up_to_monotone_cache():
    a = primes_up_to(100)
    assert list(a[:5]) == [2, 3, 5, 7, 11]
    b = primes_up_to(10)
    assert list(b) == [2, 3, 5, 7]
    c = primes_up_to(1000)
    assert int(c[-1]) == 997
