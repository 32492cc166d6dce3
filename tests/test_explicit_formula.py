import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonresidue import arith, characters, explicit_formula as ef
from nonresidue.cli import _hadamard_row, _residual_report_row
from nonresidue.arith import factorize
from nonresidue.characters import _character_block, character_group, primitive_characters
from nonresidue.explicit_formula import (
    character_log_residual,
    cheb_log_sum,
    coprime_excess_sums,
    error_terms,
    hadamard_window,
    lemma_residual,
    log_l_residual,
    loglog_sum,
    negative_pattern_minimum,
    two_adic_trig_polynomial,
    weighted_psi_sum,
)
from nonresidue.lfunctions import EULER_GAMMA, HADAMARD_B, PSI_AT_1, PSI_AT_HALF, l_at_1, re_b
from nonresidue.search import least_prime_all_classes


def brute_lambda(n: int) -> float:
    """Test-local von Mangoldt."""
    for p in range(2, n + 1):
        if n % p == 0:
            m = n
            while m % p == 0:
                m //= p
            return math.log(p) if m == 1 else 0.0
    return 0.0


# ----------------------------------------------------------------------
# sums
# ----------------------------------------------------------------------


def test_cheb_log_sum_against_direct():
    assert cheb_log_sum(1.5) == 0.0
    direct = math.fsum(brute_lambda(n) * math.log(10 / n) for n in range(2, 11))
    assert cheb_log_sum(10.0) == pytest.approx(direct, rel=1e-14)
    # twisting by the principal character mod 2 drops the powers of two
    chi0 = character_group(2)[0]
    direct_odd = math.fsum(
        brute_lambda(n) * math.log(10 / n) for n in range(3, 11, 2)
    )
    assert cheb_log_sum(10.0, chi0).real == pytest.approx(direct_odd, rel=1e-13)


def test_weighted_psi_sum_against_direct():
    assert weighted_psi_sum(1.5) == 0.0
    x = 100.0
    direct = math.fsum(brute_lambda(n) / n * (1 - n / x) for n in range(2, 101))
    assert weighted_psi_sum(x) == pytest.approx(direct, rel=1e-13)
    leg5 = [c for c in character_group(5) if c.is_real and not c.is_principal][0]
    direct_tw = math.fsum(
        brute_lambda(n) / n * (1 - n / x) * leg5.complex_table[n % 5].real
        for n in range(2, 101)
    )
    assert weighted_psi_sum(x, leg5).real == pytest.approx(direct_tw, abs=1e-13)


def test_loglog_sum_against_direct():
    assert loglog_sum(1.9) == 0.0
    x = 1000.0
    direct = math.fsum(
        brute_lambda(n) / (n * math.log(n)) * math.log(x / n) / math.log(x)
        for n in range(2, 1001)
    )
    assert loglog_sum(x) == pytest.approx(direct, rel=1e-13)
    chi4 = primitive_characters(4)[0]
    direct_tw = math.fsum(
        brute_lambda(n) / (n * math.log(n)) * math.log(x / n) / math.log(x)
        * chi4.complex_table[n % 4].real
        for n in range(2, 1001)
    )
    assert loglog_sum(x, chi4).real == pytest.approx(direct_tw, abs=1e-13)


# ----------------------------------------------------------------------
# closed-form error terms
# ----------------------------------------------------------------------


def test_error_terms_limits():
    x = 1e9
    etilde1 = error_terms(x, 1, "Etilde")
    assert etilde1 + (math.log(2) + EULER_GAMMA / 2) * math.log(x) == pytest.approx(
        math.pi**2 / 8, abs=1e-8
    )
    e1 = error_terms(x, 1, "E")
    assert e1 == pytest.approx(-EULER_GAMMA / 2, abs=1e-8)


def test_error_terms_against_brute_series():
    x = 100.0
    series = math.fsum(
        x ** (-2 * k - 1) / (2 * k * (2 * k + 1)) for k in range(1, 200)
    )
    expect = (
        -math.log(2)
        - EULER_GAMMA / 2 * (1 - 1 / x)
        + (math.log(x) + 1) / x
        - series
    )
    assert error_terms(x, 0, "E") == pytest.approx(expect, abs=1e-14)
    series_t0 = math.fsum(x ** (-2 * k) / (2 * k) ** 2 for k in range(1, 200))
    expect_t0 = (
        math.pi**2 / 24
        - EULER_GAMMA / 2 * math.log(x)
        - 0.5 * math.log(x) ** 2
        - series_t0
    )
    assert error_terms(x, 0, "Etilde") == pytest.approx(expect_t0, abs=1e-14)


def test_error_terms_vanish_at_one():
    for parity in (0, 1):
        assert abs(error_terms(1 + 1e-12, parity, "Etilde")) < 1e-9


# ----------------------------------------------------------------------
# residuals
# ----------------------------------------------------------------------


def test_untwisted_residuals_bounded():
    for lemma in ("2.1", "2.4", "2.6"):
        for x in (10.0, 100.0, 1e3, 1e4, 1e5, 1e6):
            if lemma == "2.6" and x < math.e:
                continue
            rep = lemma_residual(lemma, x)
            assert _residual_report_row(rep).verdict == "pass", (lemma, x, rep.theta)


def test_residual_domain_errors():
    with pytest.raises(ValueError):
        lemma_residual("2.1", 0.5)
    with pytest.raises(ValueError):
        lemma_residual("2.6", 2.0)  # below e
    with pytest.raises(ValueError):
        lemma_residual("9.9", 10.0)


def test_degenerate_limit_near_one():
    # empty sums at x -> 1+, main terms telescope to within a few |B|
    rep = lemma_residual("2.1", 1 + 1e-9)
    assert abs(rep.main) <= 10 * abs(HADAMARD_B)
    rep4 = lemma_residual("2.4", 1 + 1e-9)
    assert rep4.main == pytest.approx(2 * HADAMARD_B, abs=1e-6)
    assert abs(rep4.main) <= 10 * abs(HADAMARD_B)


def test_character_residuals_small_q():
    for q in (3, 5, 7):
        for chi in primitive_characters(q):
            rb = re_b(chi)
            for x in (10.0, 100.0, 1000.0):
                rep = character_log_residual(x, chi, rb)
                assert _residual_report_row(rep).verdict == "pass", (q, chi.label, x, rep.theta)


def test_hadamard_window_contains_oracle_and_nests():
    for q in (5, 7):
        for chi in primitive_characters(q):
            rb = re_b(chi)
            wide = hadamard_window(100.0, chi)
            tight = hadamard_window(1e4, chi)
            assert wide.contains(rb), (q, chi.label)
            assert tight.contains(rb), (q, chi.label)
            assert wide.lower - 1e-9 <= tight.lower
            assert tight.upper <= wide.upper + 1e-9


def test_hadamard_row_fails_below_the_window_with_a_positive_margin():
    # the margin reports the upper end only; the verdict reads both
    chi = primitive_characters(7)[0]
    win = hadamard_window(100.0, chi)
    assert win.lower > 0
    below = _hadamard_row(100.0, chi, win.lower - 2 * ef.WINDOW_SLACK)
    assert below.margin > 0 and below.verdict == "fail"
    at_edge = _hadamard_row(100.0, chi, win.lower - ef.WINDOW_SLACK / 2)
    assert at_edge.verdict == "pass" and at_edge.slack == ef.WINDOW_SLACK == 1e-9
    assert win.contains(win.lower - ef.WINDOW_SLACK / 2) and not win.contains(win.lower - 2 * ef.WINDOW_SLACK)
    above = _hadamard_row(100.0, chi, win.upper + 2 * ef.WINDOW_SLACK)
    assert above.margin < 0 and above.verdict == "fail"


def reference_twisted_rows(x: float, chi, rb: float, logl: float):
    """(lhs, main, envelope, theta) of 2.2, the 2.3 window and (lhs, main,
    envelope, theta) of 2.5, each formula evaluated in full for the one
    row, as the row functions did before their (x, q, parity) parts were
    cached; the oracle for those parts."""
    lx = math.log(x)
    lhs = cheb_log_sum(x, chi).real
    main = rb * lx + 0.5 * math.log(chi.q / math.pi) * lx + error_terms(x, chi.parity, "Etilde")
    env = rb * (2 * math.sqrt(x) + 2)
    r22 = (lhs, main, env, (lhs - main) / env)
    bracket = (
        0.5 * (1 - 1 / x) * math.log(chi.q / math.pi)
        - weighted_psi_sum(x, chi).real
        + error_terms(x, chi.parity, "E")
    )
    d_hi = 1 + 2 / math.sqrt(x) + 1 / x
    d_lo = 1 - 2 / math.sqrt(x) + 1 / x
    window = tuple(sorted((bracket / d_hi, bracket / d_lo)))
    psi_term = PSI_AT_1 if chi.parity == 1 else PSI_AT_HALF
    main = loglog_sum(x, chi).real + (0.5 * math.log(chi.q / math.pi) + 0.5 * psi_term) / lx - rb / lx
    env = 2 * rb / (math.sqrt(x) * lx**2) + 2 / (x * lx**2)
    r25 = (logl, main, env, (logl - main) / env)
    return r22, window, r25


def test_twisted_rows_are_bit_identical_to_the_full_formulas():
    for q in range(3, 61):
        for chi in primitive_characters(q):
            rb, logl = re_b(chi), math.log(abs(l_at_1(chi).value))
            for x in (50.0, 100.0, 1e3, 1e4):
                r22, window, r25 = reference_twisted_rows(x, chi, rb, logl)
                assert character_log_residual(x, chi, rb)[4:] == r22, (chi.label, x)
                assert tuple(hadamard_window(x, chi)) == window, (chi.label, x)
                assert log_l_residual(x, chi, rb, logl)[4:] == r25, (chi.label, x)


def test_twisted_terms_are_computed_once_per_x_q_and_parity():
    ef._sec2_terms.cache_clear()
    for chi in primitive_characters(97)[:16]:  # both parities
        rb, logl = re_b(chi), math.log(abs(l_at_1(chi).value))
        for x in (50.0, 100.0, 1e3, 1e4):
            character_log_residual(x, chi, rb)
            hadamard_window(x, chi)
            log_l_residual(x, chi, rb, logl)
    info = ef._sec2_terms.cache_info()
    assert info.misses <= 8 and info.hits + info.misses == 16 * 4 * 3, info
    ef._sec2_terms.cache_clear()


def test_log_l_residual_small_q():
    for q in (3, 5, 7, 8):
        for chi in primitive_characters(q):
            rb, logl = re_b(chi), math.log(abs(l_at_1(chi).value))
            for x in (50.0, 1000.0):
                rep = log_l_residual(x, chi, rb, logl)
                assert _residual_report_row(rep).verdict == "pass", (q, chi.label, x, rep.theta)


def test_residual_rejects_imprimitive():
    chi6 = [c for c in character_group(6) if not c.is_principal][0]
    with pytest.raises(ValueError):
        character_log_residual(100.0, chi6, 0.1)


# ----------------------------------------------------------------------
# unconditional pieces
# ----------------------------------------------------------------------


def test_coprime_excess_example_m4():
    log_row, harm_row = coprime_excess_sums(16.0, 4)
    hand = math.log(2) * (math.log(8.0) + math.log(4.0) + math.log(2.0))
    assert log_row.measured == pytest.approx(hand, rel=1e-13)
    assert log_row.bound == pytest.approx(0.5 * math.log(16.0) ** 2, rel=1e-15)
    assert log_row.verdict == harm_row.verdict == "pass"


def test_coprime_excess_prime_larger_than_x():
    rows = coprime_excess_sums(10.0, 101)
    assert [r.measured for r in rows] == [0.0, 0.0]
    assert all(r.verdict == "pass" for r in rows)


def test_coprime_excess_m30():
    assert all(r.verdict == "pass" for r in coprime_excess_sums(100.0, 30))


def test_coprime_excess_exhaustive_small():
    for m in range(3, 80):
        for x in (10.0, 100.0):
            rows = coprime_excess_sums(x, m)
            assert all(r.verdict == "pass" for r in rows), (m, x)


def verdicts(rows) -> dict[str, str]:
    """Lemma 3.1's verdict for each sum, keyed by its target suffix."""
    return {r.target.split(":")[1]: r.verdict for r in rows}


def test_coprime_excess_decides_each_sum_by_its_own_slack(monkeypatch):
    # slack 1e-12 (1 + |bound|) per sum: about 2e-12 for the harmonic bound
    # log 2 + log(3)/2 of m = 6, about 1e-9 for the log-weighted bound 1000
    # at x = e^sqrt(1000); _weights is patched so each sum takes a chosen value
    x = math.exp(math.sqrt(1e3))

    def rows_at(log_weighted: float, harmonic: float):
        chosen = {"cheb": log_weighted, "psi": harmonic}
        monkeypatch.setattr(ef, "_weights", lambda kind, x, t: np.array([chosen[kind]]))
        return coprime_excess_sums(x, 6)

    log_bound, harm_bound = (r.bound for r in rows_at(0.0, 0.0))
    assert log_bound == pytest.approx(1e3, rel=1e-14)
    assert harm_bound == pytest.approx(math.log(2) + math.log(3) / 2, rel=1e-15)
    rows = rows_at(10.0, harm_bound + 3e-12)
    assert verdicts(rows) == {"log-weighted": "pass", "harmonic": "fail"}
    assert verdicts(rows_at(10.0, harm_bound + 1e-12)) == {"log-weighted": "pass", "harmonic": "pass"}
    assert verdicts(rows_at(log_bound + 5e-10, harm_bound + 1e-12)) == {"log-weighted": "pass", "harmonic": "pass"}
    assert verdicts(rows_at(log_bound + 2e-9, harm_bound + 1e-12)) == {"log-weighted": "fail", "harmonic": "pass"}
    assert [r.slack for r in rows] == [1e-12 * (1 + log_bound), 1e-12 * (1 + harm_bound)]


def test_coprime_excess_per_sum_verdicts_at_the_checklist_range():
    for m in range(3, 201):
        for x in (10.0, 100.0, 1000.0):
            rows = coprime_excess_sums(x, m)
            assert verdicts(rows) == {"log-weighted": "pass", "harmonic": "pass"}, (m, x)
            # every sum clears its bound by far more than either slack
            assert min(r.margin for r in rows) > 1e-3, (m, x)


def coprime_excess_by_selection(t, x: float, m: int) -> tuple[float, float]:
    """Lemma 3.1's two sums by selecting, from every prime power <= x in t,
    those whose prime divides m."""
    shared = m % t.base == 0
    nf = t.n.astype(float)[shared]
    lam, logn = t.lam[shared], t.logn[shared]
    return math.fsum(lam * (math.log(x) - logn)), math.fsum(lam / nf * (1.0 - nf / x))


def test_coprime_excess_reads_the_powers_of_the_primes_of_m():
    for x in (10.0, 100.0, 1e3, 1e5):
        t = ef.prime_power_table(x)
        for m in range(3, 201):
            rows = coprime_excess_sums(x, m)
            assert tuple(r.measured for r in rows) == coprime_excess_by_selection(t, x, m), (m, x)


def imprimitivity_gap(x: float, chi) -> tuple[float, float]:
    """|S(x, chi) - S(x, induced primitive)| and its omega bound.

    The gap collects prime powers touching q but not the conductor and is
    bounded by omega(q / conductor) (log x)^2 / 2.
    """
    units = [n for n in range(1, chi.q) if math.gcd(n, chi.q) == 1]

    def agreeing(d: int) -> list:
        # the characters mod d that agree with chi on the units mod q (as a fraction of a turn)
        return [
            psi
            for psi in character_group(d)
            if all(int(chi.angles[n]) * psi.structure.exponent == int(psi.angles[n % d]) * chi.structure.exponent for n in units)
        ]

    # the conductor is the least d | q that has one; it is the only one
    cond = next(d for d in factorize(chi.q).divisors() if agreeing(d))
    (prim,) = agreeing(cond)
    gap = abs(cheb_log_sum(x, chi) - cheb_log_sum(x, prim))
    bound = 0.5 * factorize(chi.q // cond).omega * math.log(x) ** 2
    return gap, bound


def test_imprimitivity_gap_bound():
    for q in (6, 12, 45):
        for chi in character_group(q):
            if chi.is_primitive:
                continue
            for x in (50.0, 500.0):
                gap, bound = imprimitivity_gap(x, chi)
                assert gap <= bound + 1e-9, (q, chi.label, x, gap, bound)


def test_negative_pattern_examples():
    chi0 = character_group(3)[0]
    assert negative_pattern_minimum(100.0, chi0).verdict == "pass"
    leg7 = [c for c in character_group(7) if c.is_real and not c.is_principal][0]
    assert negative_pattern_minimum(1000.0, leg7).verdict == "pass"
    with pytest.raises(ValueError):
        negative_pattern_minimum(50.0, chi0)


def test_trig_polynomial_nonnegative():
    rep = two_adic_trig_polynomial(100.0)
    assert rep.verdict == "pass"
    assert rep.measured >= -1e-12
    dense = two_adic_trig_polynomial(1e6, grid=5001)
    assert dense.verdict == "pass"
    # the grid includes phi = 0 where every cosine deficit vanishes
    assert two_adic_trig_polynomial(100.0, grid=3).measured == pytest.approx(0.0, abs=1e-15)


# ----------------------------------------------------------------------
# twisted sums: binned by n mod q against the per-character gather
# ----------------------------------------------------------------------

SUMS = {"cheb": cheb_log_sum, "psi": weighted_psi_sum, "loglog": loglog_sum}
ORACLE_XS = (1.5, 50.0, 100.0, 1e3, 1e4)


def gathered(weights, n, chi) -> complex:
    """The twisted sum term by term: chi's value at each prime power."""
    return complex(np.dot(weights, chi.complex_table[n % chi.q]))


# Indices at the edges of the 16-character blocks mod 4003, the last block
# holding two characters (phi = 4002).
BLOCK_EDGES_4003 = (1, 15, 16, 17, 31, 32, 2015, 2016, 3999, 4000, 4001)


def oracle_characters():
    every = [chi for q in range(1, 61) for chi in character_group(q)]
    group_4003 = character_group(4003)
    return (
        every
        + [chi for q in (97, 210, 240, 299, 300) for chi in primitive_characters(q)]
        + [group_4003[i] for i in BLOCK_EDGES_4003]
    )


def test_binned_sums_match_the_gather_oracle():
    chars = oracle_characters()
    assert any(chi.is_principal for chi in chars) and any(not chi.is_primitive for chi in chars)
    for x in ORACLE_XS:
        for kind, fn in SUMS.items():
            if x <= 1.5:
                assert all(fn(x, chi) == 0j for chi in chars)
                continue
            t = ef.prime_power_table(x)
            w, n = ef._weights(kind, x, t), t.n
            # Both orders round; the error grows with the weight mass,
            # which is about x for cheb_log_sum and about log x otherwise.
            tol = 1e-12 + 1e-14 * float(np.abs(w).sum())
            for chi in chars:
                got = fn(x, chi)
                assert type(got) is complex
                assert abs(got - gathered(w, n, chi)) <= tol, (kind, x, chi.label)


def test_negative_pattern_minimum_matches_the_gather_oracle():
    for chi in primitive_characters(97) + character_group(12):
        for x in (100.0, 1e3):
            t = ef.prime_power_table(x)
            nf = t.n.astype(float)
            w = t.lam * (1.0 / (nf * t.logn) - 1.0 / (x * math.log(x)))
            lhs = negative_pattern_minimum(x, chi).measured
            assert lhs == pytest.approx(gathered(w, t.n, chi).real, abs=1e-12)


TWISTED_CACHES = (ef._stretch_weights, ef._bins, characters._block_sums, _character_block)


def _clear_twisted_caches():
    for cache in TWISTED_CACHES:
        cache.cache_clear()


def test_warm_and_cold_binned_sums_are_bit_identical():
    chars = primitive_characters(60) + primitive_characters(97)[:5] + character_group(8)
    cold = []
    for x in ORACLE_XS:
        for fn in SUMS.values():
            for chi in chars:
                _clear_twisted_caches()
                cold.append(fn(x, chi))
    _clear_twisted_caches()
    for _ in range(2):
        warm = [fn(x, chi) for x in ORACLE_XS for fn in SUMS.values() for chi in chars]
        assert warm == cold
    _clear_twisted_caches()


def test_untwisted_sums_bypass_the_bin_cache():
    _clear_twisted_caches()
    for fn in SUMS.values():
        assert type(fn(1e3)) is float
    for cache in TWISTED_CACHES:
        info = cache.cache_info()
        assert info.hits == info.misses == info.currsize == 0


def test_bin_cache_stays_within_its_cap():
    # the per-(x, q) bins and the per-(q, block) character values
    for cache, key in ((ef._bins, lambda q: (ef._KINDS, 50.0, q)), (_character_block, lambda q: (q, 0))):
        _clear_twisted_caches()
        cap = cache.cache_info().maxsize
        qs = range(3, 3 + cap + cap // 2)  # evicts fewer than the cap - 1 before q = 3
        for q in qs:
            cheb_log_sum(50.0, character_group(q)[0])
            assert cache.cache_info().currsize <= cap
            if cache.cache_info().currsize == cap - 1:
                cache(*key(3))  # a hit: now most recent
        assert cache.cache_info().misses == len(qs)

        # least recently used entries went first: q = 3 and the last q are
        # hits, q = 4 is computed again
        def misses_after(q):
            cache(*key(q))
            return cache.cache_info().misses

        assert misses_after(qs[-1]) == len(qs)
        assert misses_after(3) == len(qs)
        assert misses_after(4) == len(qs) + 1
    _clear_twisted_caches()


def test_checklist_builds_no_per_character_table():
    for q in (97, 240, 300):
        for chi in primitive_characters(q):
            rb, logl = re_b(chi), math.log(abs(l_at_1(chi).value))
            for x in (50.0, 1e3):
                character_log_residual(x, chi, rb)
                hadamard_window(x, chi)
                log_l_residual(x, chi, rb, logl)
            assert not {"complex_table", "angles"} & vars(chi).keys(), chi.label


def test_negative_pattern_minimum_builds_no_per_character_table():
    ef._bins.cache_clear()
    characters._block_sums.cache_clear()
    chars = character_group(240) + character_group(97)
    for chi in chars:
        for x in (100.0, 1e3):
            negative_pattern_minimum(x, chi)
        assert not {"complex_table", "angles"} & vars(chi).keys(), chi.label
    assert ef._bins.cache_info().misses == 4  # binned once per (x, q)
    assert characters._block_sums.cache_info().misses == 2 * (4 + 6)  # one product per (x, q, block)


def test_sums_and_l_values_share_one_block_product_per_block():
    # the sec2 rows of every primitive chi mod 97 (95 characters, 6 blocks):
    # one product per block for the Laurent data and one per twisted x
    characters._block_sums.cache_clear()
    chars, xs = primitive_characters(97), (50.0, 100.0, 1e3, 1e4)
    for chi in chars:
        rb = re_b(chi)
        logl = math.log(abs(l_at_1(chi).value))
        for x in xs:
            _residual_report_row(character_log_residual(x, chi, rb))
            _hadamard_row(x, chi, rb)
            _residual_report_row(log_l_residual(x, chi, rb, logl))
    info = characters._block_sums.cache_info()
    assert info.misses == 6 * (len(xs) + 1)
    # re_b, l_at_1, and the three twisted sums at each x: every one a read
    assert info.hits + info.misses == len(chars) * (2 + 3 * len(xs))
    characters._block_sums.cache_clear()


# ----------------------------------------------------------------------
# prime powers walked in stretches of at most arith._WINDOW integers
# ----------------------------------------------------------------------

STRETCH_CACHES = TWISTED_CACHES + (ef._alternating_sum,)


def _table_columns(t):
    return t.n, t.base, t.k


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**5))
def test_stretches_concatenate_to_the_whole_table(x):
    want = ef.prime_power_table(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_WINDOW", 1 << 10)
        stretches = list(ef._stretches(x))
    assert len(stretches) == -(-x // (1 << 10))
    for got, col in zip((np.concatenate(c) for c in zip(*map(_table_columns, stretches))), _table_columns(want)):
        np.testing.assert_array_equal(got, col)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**5), st.integers(1, 10**5))
def test_primes_between_is_a_slice_of_the_sieve(lo, width):
    hi = min(lo + width, 10**5 + 1)
    ps = arith.primes_up_to(hi)
    want = ps[ps > lo]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_WINDOW", 1 << 10)  # hi > 2^10 is sieved apart
        np.testing.assert_array_equal(arith.primes_between(lo, hi), want)
    np.testing.assert_array_equal(arith.primes_between(lo, hi), want)


@settings(max_examples=100, deadline=None)
@given(st.floats(1.0, 1e5))
def test_untwisted_sums_do_not_depend_on_the_stretch_width(x):
    want = [fn(x) for fn in SUMS.values()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_WINDOW", 1 << 10)
        assert [fn(x) for fn in SUMS.values()] == want


@pytest.fixture
def small_window(monkeypatch):
    """arith._WINDOW at 2^10, with the caches keyed by x alone emptied on
    both sides, so no sum cached under one width is read under the other."""
    for cache in STRETCH_CACHES:
        cache.cache_clear()
    monkeypatch.setattr(arith, "_WINDOW", 1 << 10)
    yield
    for cache in STRETCH_CACHES:
        cache.cache_clear()


def test_searches_and_sums_share_one_patch_point(small_window):
    # every walk past 2^10 reads stretches sieved apart from the shared cache
    ps = arith.primes_up_to(10**5)
    classes, first = np.unique(ps % 97, return_index=True)
    least = least_prime_all_classes(97, 10**5)
    np.testing.assert_array_equal(least[classes[1:]], ps[first[1:]])  # class 0 holds 97, not a unit
    assert least.max() > 1 << 10
    x = 3e4
    assert len(list(ef._stretches(x))) == 30
    t = ef.prime_power_table(x)
    rows = coprime_excess_sums(x, 30)
    assert tuple(r.measured for r in rows) == coprime_excess_by_selection(t, x, 30)
    for chi in primitive_characters(97)[:20] + character_group(12):
        for kind, fn in SUMS.items():
            w = ef._weights(kind, x, t)
            assert abs(fn(x, chi) - gathered(w, t.n, chi)) <= 1e-12 + 1e-14 * float(np.abs(w).sum()), (kind, chi.label)
        nf = t.n.astype(float)
        w = t.lam * (1.0 / (nf * t.logn) - 1.0 / (x * math.log(x)))
        row = negative_pattern_minimum(x, chi)
        assert row.measured == pytest.approx(gathered(w, t.n, chi).real, abs=1e-12)
        assert row.bound == math.fsum(w * np.where(t.k % 2 == 0, 1.0, -1.0))


def test_twisted_sums_hold_at_most_four_stretches(small_window):
    # 30 stretches mod 97 (95 characters, 6 blocks): each kind set walks
    # them once, and never keeps more than four
    x = 3e4
    t = ef.prime_power_table(x)
    pattern = t.lam * (1.0 / (t.n * t.logn) - 1.0 / (x * math.log(x)))
    for chi in primitive_characters(97):
        for kind, fn in SUMS.items():
            w = ef._weights(kind, x, t)
            assert abs(fn(x, chi) - gathered(w, t.n, chi)) <= 1e-12 + 1e-14 * float(np.abs(w).sum()), (kind, chi.label)
            assert ef._stretch_weights.cache_info().currsize <= 4
        assert negative_pattern_minimum(x, chi).measured == pytest.approx(gathered(pattern, t.n, chi).real, abs=1e-12)
        assert ef._stretch_weights.cache_info().currsize <= 4
    assert ef._stretch_weights.cache_info().misses == 2 * 30
