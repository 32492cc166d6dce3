import numpy as np
import pytest

from nonresidue.arith import primes_up_to
from nonresidue.characters import (
    NonUnitCosetError,
    kth_power_subgroup,
    trivial_subgroup,
)
from nonresidue.search import (
    ImproperSubgroupError,
    least_prime_all_classes,
    least_prime_in_coset,
    least_prime_outside_subgroup,
    least_qnr,
)


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
    assert set(kth_power_subgroup(7, 3).members()) == {1, 6}
    with pytest.raises(ImproperSubgroupError):
        least_prime_outside_subgroup(7, kth_power_subgroup(7, 5), 100)  # gcd(5, 6) = 1, powers cover the group
    assert least_prime_outside_subgroup(13, kth_power_subgroup(13, 2), 100).prime == 2


def test_coset_examples():
    assert least_prime_in_coset(8, trivial_subgroup(8), 3, 10**6).prime == 3
    assert least_prime_in_coset(7, kth_power_subgroup(7, 2), 3, 10**6).prime == 3
    assert least_prime_in_coset(23, kth_power_subgroup(23, 2), 5, 10**6).prime == 5
    with pytest.raises(NonUnitCosetError):
        least_prime_in_coset(8, trivial_subgroup(8), 4, 10**6)


def test_ap_examples():
    # a progression a mod q is the coset of a in the trivial subgroup
    assert least_prime_in_coset(4, trivial_subgroup(4), 3, 10**6).prime == 3
    assert least_prime_in_coset(8, trivial_subgroup(8), 1, 10**6).prime == 17
    assert least_prime_in_coset(5, trivial_subgroup(5), 4, 10**6).prime == 19


def test_not_found_below_ceiling():
    res = least_prime_in_coset(8, trivial_subgroup(8), 1, 10)
    assert res.prime is None and res.ceiling == 10
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


def test_qnr_equals_square_subgroup_search():
    for q in map(int, primes_up_to(10**4)):
        if q < 3:
            continue
        direct = least_qnr(q)
        via_subgroup = least_prime_outside_subgroup(q, kth_power_subgroup(q, 2), 10**6)
        assert direct.prime == via_subgroup.prime, q


def test_all_classes_matches_stepping():
    for q in (7, 12, 30, 97, 144):
        found, missing = least_prime_all_classes(q, 10**7)
        assert not missing
        for a, p in found.items():
            assert least_prime_in_coset(q, trivial_subgroup(q), a, 10**7).prime == p


def test_coset_partition_of_primes():
    # least primes aside, coset membership partitions all primes coprime to q
    for q in (7, 12, 15):
        h = kth_power_subgroup(q, 2)
        from nonresidue.bounds import coset_representatives

        reps = coset_representatives(h)
        n_max = 500
        assigned = {}
        for rep in reps:
            members = {rep * m % q for m in h.members()}
            for p in map(int, primes_up_to(n_max)):
                if q % p and p % q in members:
                    assert p not in assigned, (q, p)
                    assigned[p] = rep
        coprime_primes = [int(p) for p in primes_up_to(n_max) if q % p]
        assert sorted(assigned) == sorted(coprime_primes)
