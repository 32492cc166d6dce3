import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonresidue import arith, bounds, search
from nonresidue.arith import is_prime, prime_windows, primes_up_to
from nonresidue.bounds import verify_coset, verify_qnr, verify_stream
from nonresidue.characters import (
    SubgroupSpec,
    kth_power_subgroup,
    subgroup_from_generators,
    trivial_subgroup,
)
from nonresidue.search import (
    ImproperSubgroupError,
    coset_representatives,
    least_prime_all_classes,
    least_prime_outside_subgroup,
    least_qnr,
)

from helpers import members


def least_prime_in_coset_by_stepping(q: int, h: SubgroupSpec, a: int, ceiling: int) -> int | None:
    """The per-coset oracle: step n = base + r over the residues r of aH,
    base = 0, q, 2q, ..., and return the first prime n <= ceiling."""
    if math.gcd(a, q) != 1:
        raise ValueError(f"a={a} is not a unit mod {q}")
    residues = sorted(a * m % q for m in members(h))
    for base in range(0, ceiling + 1, q):
        for r in residues:
            if 2 <= base + r <= ceiling and is_prime(base + r):
                return base + r
    return None


def _least_in_coset(q: int, h: SubgroupSpec, a: int, ceiling: int) -> int:
    """Least prime in aH read from the one per-coset sieve, 0 if none."""
    _, cosets = coset_representatives(h)
    return int(least_prime_all_classes(q, ceiling, cosets)[cosets[a]])


def test_least_prime_outside_subgroup_examples():
    assert least_prime_outside_subgroup(7, kth_power_subgroup(7, 2), 1000).prime == 3
    assert least_prime_outside_subgroup(13, kth_power_subgroup(13, 3), 1000).prime == 2
    assert least_prime_outside_subgroup(5, kth_power_subgroup(5, 2), 1000).prime == 2


def test_least_qnr_examples():
    assert least_qnr(5).prime == 2
    assert least_qnr(7).prime == 3
    assert least_qnr(23).prime == 5


def test_kth_nonresidue():
    # the least k-th power non-residue is the least prime outside the k-th powers
    assert least_prime_outside_subgroup(7, kth_power_subgroup(7, 3), 100).prime == 2  # cubes mod 7 are {1, 6}
    assert set(members(kth_power_subgroup(7, 3))) == {1, 6}
    with pytest.raises(ImproperSubgroupError):
        least_prime_outside_subgroup(7, kth_power_subgroup(7, 5), 100)  # gcd(5, 6) = 1, powers cover the group
    assert least_prime_outside_subgroup(13, kth_power_subgroup(13, 2), 100).prime == 2


def test_coset_examples():
    assert _least_in_coset(8, trivial_subgroup(8), 3, 10**6) == 3
    assert _least_in_coset(7, kth_power_subgroup(7, 2), 3, 10**6) == 3
    assert _least_in_coset(23, kth_power_subgroup(23, 2), 5, 10**6) == 5
    # a non-unit lies in no coset: the numbering gives it slot n
    reps, cosets = coset_representatives(trivial_subgroup(8))
    assert cosets[4] == len(reps) == 4


def test_ap_examples():
    # a progression a mod q is the coset of a in the trivial subgroup
    assert _least_in_coset(4, trivial_subgroup(4), 3, 10**6) == 3
    assert _least_in_coset(8, trivial_subgroup(8), 1, 10**6) == 17
    assert _least_in_coset(5, trivial_subgroup(5), 4, 10**6) == 19


def test_not_found_below_ceiling():
    rows = verify_coset(8, "trivial", ceiling=10)
    assert [r.target for r in rows] == [f"coset:a={a}:trivial" for a in (1, 3, 5, 7)]
    assert (rows[0].measured, rows[0].verdict) == (None, "not-found")
    assert [r.measured for r in rows[1:]] == [3, 5, 7]
    res2 = least_prime_outside_subgroup(7, kth_power_subgroup(7, 2), 2)
    assert res2.prime is None


def test_minimality_spot_checks():
    rng = np.random.default_rng(13)
    for q in map(int, rng.integers(5, 500, size=40)):
        h = kth_power_subgroup(q, 2)
        if h.index == 1:
            continue
        res = least_prime_outside_subgroup(q, h, 10**6)
        assert res.prime is not None
        for p in map(int, primes_up_to(res.prime - 1)):
            assert q % p == 0 or h.contains(p), (q, p, res.prime)


def euler_least_qnr(q: int) -> tuple[int, int]:
    """(least prime quadratic non-residue, primes examined) for an odd prime
    q, by Euler's criterion over the sieve: the oracle for least_qnr."""
    examined = 0
    for p in map(int, primes_up_to(q)):
        if p == q:
            continue
        examined += 1
        if pow(p, (q - 1) // 2, q) == q - 1:
            return p, examined
    raise AssertionError(f"no non-residue below {q}")


def test_least_qnr_matches_euler_criterion():
    for q in map(int, primes_up_to(10**4)):
        if q < 3:
            continue
        res = least_qnr(q)
        assert (res.prime, res.examined) == euler_least_qnr(q), q


# OEIS A000229: the least prime q whose least quadratic non-residue is l.
A000229_RECORDS = ((9257329, 53), (22000801, 59), (36415991, 61), (48473881, 67), (120293879, 73), (131486759, 83))


def test_least_qnr_finds_the_oeis_records():
    for q, ell in A000229_RECORDS:
        res = least_qnr(q)
        assert (res.prime, res.examined, res.ceiling) == (ell, len(primes_up_to(ell)), q), q
        assert res.target == "outside:powers:2"
        # Euler's criterion: l is a non-residue, every smaller prime a residue
        assert pow(ell, (q - 1) // 2, q) == q - 1, q
        assert all(pow(p, (q - 1) // 2, q) == 1 for p in map(int, primes_up_to(ell - 1))), q


def test_reciprocity_tables_match_euler_criterion():
    qs = [int(q) for q in primes_up_to(20000) if q > 2]
    for ell, table in search._reciprocity_tables():
        for q in qs:
            if q != ell:
                assert table[q % len(table)] == (pow(ell, (q - 1) // 2, q) == q - 1), (ell, q)


def test_least_qnr_falls_back_past_its_tables(monkeypatch):
    # with the tables of 2 and 3 alone, every q whose non-residue is 5 or
    # more goes to the subgroup search, and the answer stays Euler's
    tables = search._reciprocity_tables()[:2]
    monkeypatch.setattr(search, "_reciprocity_tables", lambda: tables)
    fallbacks = []

    def spy(q, h, ceiling):
        fallbacks.append(q)
        return least_prime_outside_subgroup(q, h, ceiling)

    monkeypatch.setattr(search, "least_prime_outside_subgroup", spy)
    expected_fallbacks = []
    for q in map(int, primes_up_to(10**4)[1:]):
        res = least_qnr(q)
        assert (res.prime, res.examined, res.ceiling) == (*euler_least_qnr(q), q), q
        if res.prime > 3:
            expected_fallbacks.append(q)
    assert fallbacks == expected_fallbacks and 23 in fallbacks


def test_least_qnr_rejects_non_primes():
    for q in (-7, 0, 1, 2, 4, 9, 15, 3 * 1000000000000037):
        with pytest.raises(ValueError):
            least_qnr(q)


def test_search_sieves_only_as_far_as_it_reads(small_sieve_only):
    h = kth_power_subgroup(7, 2)
    small_sieve_only.clear()  # factorize's requests while h was built
    assert least_prime_outside_subgroup(7, h, 10**12).prime == 3
    assert small_sieve_only == [64]
    res = least_qnr(1000000000000037)
    assert res.prime == 2 and res.ceiling == 1000000000000037


def _qnr_rows_by_is_prime(qs) -> list:
    return [verify_qnr(q) for q in qs if q >= 5 and is_prime(q)]


def test_cor12_range_reads_the_same_primes():
    w = arith._WINDOW
    # the stops 7, 97 and 2^23 + 315 are prime, and out of their ranges
    for qs in (range(5, 3000), range(-20, 400), range(0, 1), range(2, 12), range(4, 6), range(5, 7), range(90, 97),
               range(w - 3000, w + 315), range(w - 300, w + 315), range(100, 100), range(50, 10), range(7, 1000, 2)):
        assert list(verify_stream("cor12", qs)) == _qnr_rows_by_is_prime(qs), qs
    qs = [11, 4, 13, 1, 97, 1000000000000037]
    assert list(verify_stream("cor12", qs)) == _qnr_rows_by_is_prime(qs)


def test_cor12_range_in_narrow_stretches(monkeypatch):
    # with a 2^10 window, stretches past the first are sieved on their own;
    # a top t with isqrt(t) > 2^10 (t >= 1025^2) or above the range's length
    # falls back to is_prime
    monkeypatch.setattr(arith, "_WINDOW", 1 << 10)
    tested = []
    monkeypatch.setattr(bounds, "is_prime", lambda n: tested.append(n) or is_prime(n))
    for qs in (range(1, 5000), range(1000, 3109), range(1023, 1080), range(1048000, 1025**2)):
        assert list(verify_stream("cor12", qs)) == _qnr_rows_by_is_prime(qs), qs
    assert tested == []
    for qs in (range(1048000, 1025**2 + 1), range(1023, 1026), range(1000, 1030)):
        tested.clear()
        assert list(verify_stream("cor12", qs)) == _qnr_rows_by_is_prime(qs), qs
        assert tested == list(qs), qs


def test_cor12_range_tests_no_integer_for_primality(monkeypatch):
    tested = []
    monkeypatch.setattr(bounds, "is_prime", lambda n: tested.append(n) or is_prime(n))
    rows = list(verify_stream("cor12", range(5, 10**5)))
    assert len(rows) == len(primes_up_to(10**5)) - 2 and tested == []
    list(verify_stream("cor12", list(range(5, 100))))
    assert tested == list(range(5, 100))


def test_cor12_range_above_the_sieve_asks_it_for_nothing(small_sieve_only):
    q = 1000000000000037
    assert list(verify_stream("cor12", range(q, q + 1))) == [verify_qnr(q)]
    assert small_sieve_only == []


class _BelowCut(SubgroupSpec):
    """Not a subgroup: 'contains' every n <= 300, so the search runs past
    the first stretches of the sieve."""

    def contains(self, n: int) -> bool:
        return n <= 300


def test_search_reads_stretches_to_the_ceiling(small_sieve_only):
    h = _BelowCut(10**9 + 7, 2, "below-300")
    res = least_prime_outside_subgroup(h.q, h, 10**12)
    assert res.prime == 307 and res.examined == len(primes_up_to(307))
    assert small_sieve_only == [64, 256, 1024]
    small_sieve_only.clear()
    for ceiling in (293, 300):
        res = least_prime_outside_subgroup(h.q, h, ceiling)
        assert res.prime is None and res.examined == len(primes_up_to(ceiling)) and res.ceiling == ceiling
    assert small_sieve_only == [64, 256, 293, 64, 256, 300]


def _all_classes_by_coset_search(q: int, ceiling: int) -> np.ndarray:
    """The per-class oracle: one trivial-coset stepping search per reduced
    class, 0 on non-units and on classes with no prime found."""
    h = trivial_subgroup(q)
    out = np.zeros(q, dtype=np.int64)
    for a in range(q):
        if math.gcd(a, q) == 1:
            out[a] = least_prime_in_coset_by_stepping(q, h, a, ceiling) or 0
    return out


def _check_all_classes_against_stepping(qmax: int) -> None:
    for q in range(1, qmax + 1):
        least = least_prime_all_classes(q, 10**7)
        assert least.dtype == np.int64 and least.shape == (q,)
        np.testing.assert_array_equal(least, _all_classes_by_coset_search(q, 10**7), err_msg=f"q={q}")


def test_all_classes_matches_stepping():
    _check_all_classes_against_stepping(300)


@pytest.mark.slow
def test_all_classes_matches_stepping_to_3000():
    _check_all_classes_against_stepping(3000)


def _check_cosets_against_stepping(qmax: int) -> None:
    """verify_coset's one sieve against a stepping search per coset, for
    the squares, the cubes, {1} and <2>."""
    for q in range(3, qmax + 1):
        subgroups = [kth_power_subgroup(q, 2), kth_power_subgroup(q, 3), trivial_subgroup(q)]
        if q % 2:
            subgroups.append(subgroup_from_generators(q, [2]))
        for h in subgroups:
            rows = verify_coset(q, "gens:2" if h.kind == "generators" else h.kind)
            assert len(rows) == h.index, (q, h.kind)
            for row in rows:
                a = int(row.target.split(":")[1].removeprefix("a="))
                assert row.measured == least_prime_in_coset_by_stepping(q, h, a, 10**9), (q, h.kind, a)


def test_cosets_match_stepping():
    _check_cosets_against_stepping(300)


@pytest.mark.slow
def test_cosets_match_stepping_to_3000():
    _check_cosets_against_stepping(3000)


def test_coset_search_sieves_only_the_first_stretch(small_sieve_only):
    # both cosets of the squares mod 1000003 are hit below max(64 * 2, 4096);
    # the smaller requests are factorize's
    rows = verify_coset(1000003, "squares")
    assert [(r.target, r.measured) for r in rows] == [("coset:a=1:powers:2", 13), ("coset:a=2:powers:2", 2)]
    assert small_sieve_only[-1] == max(small_sieve_only) == 4096


def test_all_classes_asks_the_cache_for_no_more_than_a_window(small_sieve_only):
    # q = 100003's worst class, 14,418,919, lies past the window: the stretch
    # that reaches it is sieved on its own, not by the shared cache
    least = least_prime_all_classes(100003, 10**9)
    assert (least > 0).sum() == 100002 and least.max() > arith._WINDOW


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**5), st.integers(1, 10**4), st.integers(0, 10**5))
def test_prime_windows_walk_the_sieve_in_bounded_stretches(ceiling, first, lo):
    # from 0, or from lo with the first stretch ending at lo + first
    for start, first_end in ((0, first), (lo, lo + first)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_WINDOW", 1 << 10)
            stretches = list(prime_windows(ceiling, first_end, start))
        walked = np.concatenate([np.empty(0, dtype=np.int64), *stretches])
        ps = primes_up_to(ceiling)
        np.testing.assert_array_equal(walked, ps[ps > start])
        assert (np.diff(walked) > 0).all()
        assert all(s[-1] - s[0] < 1 << 10 for s in stretches if s.size)


def test_searches_match_stepping_through_sieved_windows(monkeypatch):
    # with a 2^10 window every search past 1024 reads stretches sieved on their own
    monkeypatch.setattr(arith, "_WINDOW", 1 << 10)
    _check_all_classes_against_stepping(300)
    _check_cosets_against_stepping(100)


def test_all_classes_grows_past_the_first_stretch():
    # a single pass at 64 q leaves classes empty at q = 10,007; stepping
    # along their progressions finds them, each the least prime of its class
    q = 10_007
    first = least_prime_all_classes(q, 64 * q)
    empty = [a for a in range(1, q) if first[a] == 0]
    assert len(empty) == 14
    least = least_prime_all_classes(q, 10**9)
    assert np.array_equal(least[first > 0], first[first > 0])
    h = trivial_subgroup(q)
    for a in empty:
        assert least[a] > 64 * q
        assert least_prime_in_coset_by_stepping(q, h, a, 10**9) == least[a]


def test_all_classes_second_stretch_matches_stepping():
    # q = 461's worst class, 37,363, lies above the first stretch's
    # max(64 q, 4096) = 29,504, so the array is finished past it
    q = 461
    least = least_prime_all_classes(q, 10**7)
    assert least.max() == 37_363 > max(64 * q, 4096)
    np.testing.assert_array_equal(least, _all_classes_by_coset_search(q, 10**7))


def _all_classes_by_plain_sieve(q: int, ceiling: int) -> np.ndarray:
    """The per-class oracle from one plain sieve to the ceiling: each
    residue's first prime, by np.unique over the primes in increasing
    order, 0 on non-units and on classes with no prime found."""
    mask = np.ones(ceiling + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(ceiling) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    ps = np.flatnonzero(mask)
    residues, first = np.unique(ps % q, return_index=True)
    least = np.zeros(q, dtype=np.int64)
    least[residues] = ps[first]
    least[np.gcd(np.arange(q), q) != 1] = 0
    return least


@pytest.fixture
def stretches(monkeypatch):
    """Records the (lo, hi] of each stretch the class search reads: its
    first, and those of the walk, from arith."""
    asked = []
    primes_between = arith.primes_between

    def spy(lo, hi):
        asked.append((lo, hi))
        return primes_between(lo, hi)

    monkeypatch.setattr(search, "primes_between", spy)
    monkeypatch.setattr(arith, "primes_between", spy)
    return asked


def test_all_classes_from_the_first_stretch_alone(stretches):
    # every class of 97 has its least prime below max(64 q, 4096) = 6,208
    least = least_prime_all_classes(97, 10**6)
    np.testing.assert_array_equal(least, _all_classes_by_plain_sieve(97, 10**6))
    assert 0 < least[1:].min() and least.max() <= 6208 and stretches == [(0, 6208)]


@pytest.mark.parametrize("q", [461, 1933, 10_007])
def test_all_classes_step_past_the_first_stretch(q, stretches):
    # each has classes with no prime up to 64 q (14 at q = 10,007): they
    # are finished along their progressions, and no second stretch is read
    ceiling = 200 * q
    least = least_prime_all_classes(q, ceiling)
    np.testing.assert_array_equal(least, _all_classes_by_plain_sieve(q, ceiling))
    assert (least > 0).sum() == q - 1 and least.max() > 64 * q
    assert stretches == [(0, 64 * q)]


def test_all_classes_step_to_the_window_then_walk(monkeypatch, stretches):
    # with a 2^15 window, q = 461's first stretch ends at 29,504; its empty
    # classes step through the sieve's bits up to 32,768, and the last one,
    # 37,363, is found by the walk past the window
    monkeypatch.setattr(arith, "_WINDOW", 1 << 15)
    least = least_prime_all_classes(461, 10**6)
    np.testing.assert_array_equal(least, _all_classes_by_plain_sieve(461, 10**6))
    assert least.max() == 37_363 and stretches == [(0, 29_504), (1 << 15, 1 << 16)]
    # up to the prime ceiling 37,361 the last class stays empty: its next
    # term, 37,363, lies past the ceiling, though prime
    monkeypatch.setattr(arith, "_WINDOW", 1 << 16)
    least = least_prime_all_classes(461, 37_361)
    np.testing.assert_array_equal(least, _all_classes_by_plain_sieve(461, 37_361))
    assert least[37_363 % 461] == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 1500), st.integers(0, 150_000), st.integers(10, 17))
def test_all_classes_match_a_plain_sieve_at_any_window(q, ceiling, log_window):
    # the first stretch, the stepping and the walk past the window, each
    # cut short by the ceiling or the window
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_WINDOW", 1 << log_window)
        least = least_prime_all_classes(q, ceiling)
    np.testing.assert_array_equal(least, _all_classes_by_plain_sieve(q, ceiling))


def test_all_classes_below_a_low_ceiling():
    # primes <= 20 mod 7 hit 2, 3, 5, 0, 4, 6, 3, 5: class 1 waits for 29
    least = least_prime_all_classes(7, 20)
    np.testing.assert_array_equal(least, [0, 0, 2, 3, 11, 5, 13])
    assert least_prime_all_classes(7, 29)[1] == 29


def test_coset_partition_of_primes():
    # least primes aside, coset membership partitions all primes coprime to q
    for q in (7, 12, 15):
        h = kth_power_subgroup(q, 2)
        reps, cosets = coset_representatives(h)
        n_max = 500
        assigned = {}
        for rep in reps:
            coset = {rep * m % q for m in members(h)}
            for p in map(int, primes_up_to(n_max)):
                if q % p and p % q in coset:
                    assert p not in assigned, (q, p)
                    assert reps[cosets[p % q]] == rep, (q, p)
                    assigned[p] = rep
        coprime_primes = [int(p) for p in primes_up_to(n_max) if q % p]
        assert sorted(assigned) == sorted(coprime_primes)
