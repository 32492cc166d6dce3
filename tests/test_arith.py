import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonresidue import arith, bounds
from nonresidue.arith import (
    ModulusTooLargeError,
    euler_phi,
    factorize,
    is_prime,
    primes_up_to,
    unit_group_structure,
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


def test_factorize_at_the_trial_division_edges():
    # Trial division stops at the largest prime below 10^5 (99991); a cofactor
    # below 10^10 is then prime without a primality test, and above it is not
    # assumed to be.  100003 is the least prime above 10^5.
    for n in (99991**2, 99991 * 100003, 100003**2, 10**10 - 3, 10**10 + 3, 99991 * 100003 * 7):
        assert factorize(n).factors == tuple(trial_division(n)), n


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


# psi_k: the least strong pseudoprime to the first k prime bases (OEIS A014233)
WITNESS_PREFIX_BOUNDS = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)


def _window_is_prime(lo: int, hi: int) -> np.ndarray:
    """Primality of lo..hi-1 by striking the multiples of every prime <= sqrt(hi)."""
    limit = math.isqrt(hi) + 1
    small = np.ones(limit + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if small[p]:
            small[p * p :: p] = False
    ps = np.flatnonzero(small)
    starts = np.maximum(ps * ps, -(-lo // ps) * ps) - lo  # first multiple to strike, as an offset
    out = np.ones(hi - lo, dtype=bool)
    out[: max(2 - lo, 0)] = False
    few = ps < hi - lo
    for start, p in zip(starts[few].tolist(), ps[few].tolist()):
        out[start::p] = False
    once = starts[~few]  # a prime at least as wide as the window strikes it at most once
    out[once[once < hi - lo]] = False
    return out


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert is_prime(1000000007) == trial_is_prime(1000000007)


def test_is_prime_exhaustive_small():
    limit = 200_000
    sieve = _window_is_prime(0, limit + 1)
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


def test_every_witness_prefix_bound_is_composite():
    # psi_k passes the first k witnesses, so n < psi_k must stay strict
    for psi in WITNESS_PREFIX_BOUNDS:
        assert not is_prime(psi), psi


def test_known_primes_below_the_bounds_are_prime():
    for p, bound in ((2**31 - 1, 3215031751), (10**12 + 39, 2152302898747), (2**61 - 1, 3825123056546413051)):
        assert p < bound and is_prime(p), p
    assert is_prime(2**63 - 25) and not is_prime(2**63 - 1)


def test_is_prime_across_each_prefix_switch():
    # a window on each side of psi_k that a sieve can reach tests the prefixes k and k + 1
    for psi in WITNESS_PREFIX_BOUNDS[:-1]:
        lo = psi - 1000
        want = _window_is_prime(lo, psi + 1000)
        assert [is_prime(n) for n in range(lo, psi + 1000)] == want.tolist(), psi


def test_miller_rabin_across_each_prefix_switch():
    # is_prime reads the sieve below 2^20, so Miller-Rabin itself is tested
    # here: on a window each side of every psi_k past psi_1, where the
    # prefix of k witnesses hands over to the next, and below 2^20
    # (2047 = psi_1 needs two witnesses now that one is never used)
    assert [arith._miller_rabin(n) for n in range(2, 5000)] == _window_is_prime(2, 5000).tolist()
    for psi in WITNESS_PREFIX_BOUNDS[1:-1]:
        lo = psi - 1000
        want = _window_is_prime(lo, psi + 1000)
        assert [arith._miller_rabin(n) for n in range(lo, psi + 1000)] == want.tolist(), psi
    assert not arith._miller_rabin(WITNESS_PREFIX_BOUNDS[-1])  # psi_9, too high for a window sieve
    # the strong pseudoprimes to base 2 in [2^20, psi_2), where two
    # witnesses are the shortest prefix that is_prime hands over
    for n in (1082401, 1145257, 1194649, 1207361, 1251949, 1252697, 1302451, 1325843, 1357441):
        assert not arith._miller_rabin(n) and not is_prime(n), n


def _empty_the_sieve(mp: pytest.MonkeyPatch) -> None:
    """The shared sieve as a fresh process finds it, until mp is undone."""
    mp.setattr(arith, "_sieve_limit", 0)
    mp.setattr(arith, "_sieve_bits", memoryview(bytes(1)))
    mp.setattr(arith, "_sieve_primes", np.empty(0, dtype=np.int64))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1 << 21), st.integers(1, 3000))
def test_is_prime_matches_a_window_sieve_across_the_sieve_limit(grow_to, width):
    # from an emptied sieve, then once more after it grew to grow_to or
    # beyond: n below the limit is a lookup, n above it below 2^20 grows
    # the sieve, and n above both is Miller-Rabin
    with pytest.MonkeyPatch.context() as mp:
        _empty_the_sieve(mp)
        for _ in range(2):
            lo = max(arith._sieve_limit - width, 0)
            hi = arith._sieve_limit + width
            assert [is_prime(n) for n in range(lo, hi)] == _window_is_prime(lo, hi).tolist(), (lo, hi)
            primes_up_to(grow_to)


def test_is_prime_asks_the_sieve_for_little(small_sieve_only, monkeypatch):
    _empty_the_sieve(monkeypatch)
    # above 2^20 and the limit: Miller-Rabin, and nothing asked
    assert is_prime(1000000007) and not is_prime(1000000007 * 3) and is_prime((1 << 20) + 7)
    assert small_sieve_only == [] and arith._sieve_limit == 0
    # below 2^20 each n grows the sieve once, never past 2^21
    for n in (5, 65537, 70001, 600011, (1 << 20) - 3):
        assert is_prime(n) == trial_is_prime(n), n
        assert max(small_sieve_only) <= 1 << 21 and arith._sieve_limit <= 1 << 21, n
    asked = len(small_sieve_only)
    assert arith._sieve_limit > 1 << 20  # 1,200,022: twice 600,011
    assert [is_prime(n) for n in range(1 << 20, arith._sieve_limit + 10)] == _window_is_prime(
        1 << 20, arith._sieve_limit + 10
    ).tolist()
    assert len(small_sieve_only) == asked


def test_primes_up_to_doubles_no_further_than_the_window(monkeypatch):
    # the cache grows to n or to twice its limit, but a request at or below
    # _WINDOW never builds past it, so neither do its mask's bytes
    _empty_the_sieve(monkeypatch)
    w = arith._WINDOW
    asked = 0
    for n in (10, 5 * 10**6, 6 * 10**6, w - 1, w, 7 * 10**6, w + 5, 3):
        ps = primes_up_to(n)
        asked = max(asked, n)
        assert arith._sieve_limit <= max(w, asked), n
        assert len(arith._sieve_bits) == arith._sieve_limit // 8 + 1, n
        assert ps.size == 0 or ps[-1] <= n
    assert arith._sieve_limit == w + 5
    want = _window_is_prime(0, w + 6)
    np.testing.assert_array_equal(arith.is_prime_array(np.arange(w + 6)), want)
    np.testing.assert_array_equal(np.flatnonzero(want), arith._sieve_primes)


@pytest.mark.slow
def test_is_prime_exhaustive_to_2e6():
    # past psi_2 = 1,373,653, where three witnesses take over from two
    limit = 2_000_000
    assert [is_prime(n) for n in range(limit + 1)] == _window_is_prime(0, limit + 1).tolist()


def von_mangoldt(n: int) -> float:
    """log p if n is a power of the prime p, else 0."""
    if n < 2:
        return 0.0
    fac = factorize(n)
    if fac.omega == 1:
        return math.log(fac.factors[0][0])
    return 0.0


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


def dlog(s, n: int) -> tuple[int, ...]:
    """Exponents of the unit n on the components of s, read from its tables."""
    return tuple(int(t[n % s.q]) for t in s.dlogs)


def from_exponents(s, exps) -> int:
    """prod_j g_j^e_j mod q: the inverse of dlog on the units."""
    out = 1 % s.q
    for (g, d), e in zip(s.components, exps):
        out = out * pow(g, e % d, s.q) % s.q
    return out


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
            assert from_exponents(s, dlog(s, n)) == n, (q, n)


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
            exps = dlog(s, n)
            assert all(0 <= e < d for e, (_, d) in zip(exps, s.components)), (q, n)
            assert from_exponents(s, exps) == n % q, (q, n)
        else:
            assert not s.unit_mask[n % q]
        # A component's table reads -1 exactly where n shares its prime.
        for p, _, idxs in s.prime_blocks:
            for j in idxs:
                assert (int(s.dlogs[j][n % q]) == -1) == (n % p == 0), (q, n, p)


def test_searches_build_no_dlog_tables():
    # the subgroup search tests membership by exponents: it reads no unit group
    unit_group_structure.cache_clear()
    for q in (3001, 3003, 4096, 5000, 7919):
        bounds.verify_subgroup(q)
        assert unit_group_structure.cache_info().misses == 0, q
    # the progression search reads the unit mask of the entry it built, never its dlogs
    for q in (4, 10, 64, 105, 2000):
        bounds.verify_ap(q)
        misses = unit_group_structure.cache_info().misses
        assert "dlogs" not in unit_group_structure(q).__dict__, q
        assert unit_group_structure.cache_info().misses == misses, q


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


def test_ap_scan_near_1e6_keeps_few_unit_masks_live():
    # each cached unit group keeps a q-byte mask: about 1 MB a modulus here
    tracemalloc.start()
    try:
        for q in range(10**6, 10**6 + 200):
            bounds.verify_ap(q, ceiling=1000)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live < 20 * 2**20, live


def test_unit_group_ceiling():
    with pytest.raises(ModulusTooLargeError):
        unit_group_structure(10**7 + 1)  # raises before anything is allocated


def test_primes_up_to_monotone_cache():
    a = primes_up_to(100)
    assert list(a[:5]) == [2, 3, 5, 7, 11]
    b = primes_up_to(10)
    assert list(b) == [2, 3, 5, 7]
    c = primes_up_to(1000)
    assert int(c[-1]) == 997
