import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings, strategies as st

from nonresidue import lfunctions
from nonresidue.arith import DLOG_CEILING, ModulusTooLargeError, factorize, is_prime, unit_group_structure
from nonresidue.characters import (
    DirichletCharacter,
    character_group,
    is_fundamental_discriminant,
    kronecker_character_table,
    primitive_characters,
)
from nonresidue.kernels import gamma_kernel
from nonresidue.lfunctions import (
    EULER_GAMMA,
    FINITE_METHOD,
    HADAMARD_B,
    HURWITZ_METHOD,
    PSI_AT_1,
    PSI_AT_HALF,
    SERIES_METHOD,
    NotFundamentalError,
    PrincipalCharacterError,
    class_number_bqf,
    class_number_via_formula,
    hurwitz_laurent_pair,
    l_and_lprime_at_1,
    l_at_1,
    re_b,
)

from helpers import divisors


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------


def test_hadamard_constant_digits():
    assert -0.0230958 < HADAMARD_B < -0.0230956
    assert HADAMARD_B == pytest.approx(0.5 * math.log(4 * math.pi) - 1 - EULER_GAMMA / 2, abs=1e-16)


def test_psi_special_values():
    assert PSI_AT_1 == -EULER_GAMMA
    assert PSI_AT_HALF == pytest.approx(-2 * math.log(2) - EULER_GAMMA, abs=1e-15)
    with mpmath.workdps(30):
        assert PSI_AT_1 == pytest.approx(float(mpmath.digamma(1)), abs=1e-16)
        assert PSI_AT_HALF == pytest.approx(float(mpmath.digamma(mpmath.mpf(1) / 2)), abs=1e-15)


# ----------------------------------------------------------------------
# Gamma
# ----------------------------------------------------------------------


# The Gamma kernel reads Gamma from scipy.special.gamma (complex argument).


def test_gamma_classical_values():
    gamma = scipy.special.gamma
    assert gamma(0.5 + 0j).real == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(1.0 + 0j).real == pytest.approx(1.0, rel=1e-14)
    assert gamma(5.0 + 0j).real == pytest.approx(24.0, rel=1e-13)
    assert gamma(-0.5 + 0j).real == pytest.approx(-2 * math.sqrt(math.pi), rel=1e-13)
    assert gamma_kernel().at_half == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_near_zero_real_part():
    # Gamma(it) = 1/(it) - gamma + O(t), so Re tends to -gamma
    assert scipy.special.gamma(1e-4j).real == pytest.approx(-EULER_GAMMA, abs=1e-6)
    assert gamma_kernel().line(1e-4) == pytest.approx(2 * EULER_GAMMA, abs=1e-6)


def test_gamma_reflection_identity():
    rng = np.random.default_rng(2)
    for _ in range(60):
        z = complex(rng.uniform(-2, 2), rng.uniform(-10, 10))
        if abs(z.imag) < 1e-3 and abs(z - round(z.real)) < 1e-2:
            continue
        lhs = scipy.special.gamma(z) * scipy.special.gamma(1 - z)
        rhs = math.pi / cmath.sin(math.pi * z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_gamma_matches_mpmath_on_strip():
    rng = np.random.default_rng(4)
    with mpmath.workdps(30):
        for _ in range(120):
            z = complex(rng.uniform(-2, 2), rng.uniform(-60, 60))
            if abs(z.imag) < 1e-6:
                continue
            ref = mpmath.gamma(mpmath.mpc(z.real, z.imag))
            assert abs(scipy.special.gamma(z) - ref) <= 1e-12 * abs(ref), z


def test_gamma_modulus_on_line():
    # |Gamma(it)|^2 = pi / (t sinh(pi t))
    for t in (0.5, 1.0, 3.0, 10.0, 30.0):
        mine = abs(scipy.special.gamma(1j * t)) ** 2
        ref = math.pi / (t * math.sinh(math.pi * t))
        assert mine == pytest.approx(ref, rel=1e-12)


def test_gamma_pole():
    # scipy gives no finite value at a pole; the kernel's line takes the
    # limit 2 gamma at t = 0 and never evaluates Gamma there
    assert not np.isfinite(scipy.special.gamma(0j))
    assert not np.isfinite(scipy.special.gamma(-3.0 + 0j))
    assert gamma_kernel().line(0.0) == 2 * EULER_GAMMA


# ----------------------------------------------------------------------
# Hurwitz zeta Laurent data at s = 1
# ----------------------------------------------------------------------


def test_hurwitz_laurent_pair_against_psi_and_difference():
    # zeta(s, a) = 1/(s-1) - psi_0(a) - gamma_1(a) (s-1) + ..., with the
    # digamma function and the generalized Stieltjes constant gamma_1(a)
    # from mpmath
    with mpmath.workdps(30):
        for q in (5, 12, 50):
            c0, c1 = hurwitz_laurent_pair(q)
            for a in range(1, q + 1):
                assert c0[a - 1] == pytest.approx(-float(mpmath.digamma(mpmath.mpf(a) / q)), abs=1e-11)
                want = -mpmath.stieltjes(1, mpmath.mpf(a) / q)
                assert abs(c1[a - 1] - want) < 1e-12, (q, a)
    # the a = 1 column is the classical first Stieltjes constant
    _, c1_top = hurwitz_laurent_pair(1)
    assert c1_top[0] == pytest.approx(0.0728158454836767, abs=1e-13)


# ----------------------------------------------------------------------
# L-values at s = 1
# ----------------------------------------------------------------------


def _real_odd_primitive(q):
    return [c for c in primitive_characters(q) if c.is_real and c.parity == 1][0]


def test_l_at_1_from_class_number_oracle():
    # brute-force reduced-form count, inverted through h = sqrt(q) L / pi
    def brute_forms(q):
        count = 0
        amax = int(math.isqrt(q // 3)) + 1
        for a in range(1, amax + 1):
            for b in range(-a, a + 1):
                num = b * b + q
                if num % (4 * a):
                    continue
                c = num // (4 * a)
                if c < a:
                    continue
                if b < 0 and (a == -b or a == c):
                    continue
                count += 1
        return count

    for q in (7, 23, 8, 11, 163):
        h = brute_forms(q)
        chi = _real_odd_primitive(q)
        val = l_at_1(chi).value
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real == pytest.approx(h * math.pi / math.sqrt(q), rel=1e-11), q


def test_l_at_1_quadratic_field_closed_form():
    chi5 = [c for c in primitive_characters(5) if c.is_real][0]
    assert chi5.parity == 0
    closed = 2 / math.sqrt(5) * math.log((1 + math.sqrt(5)) / 2)
    assert l_at_1(chi5).value.real == pytest.approx(closed, abs=1e-11)


def test_l_at_1_methods_agree():
    for q in (5, 7, 11, 12, 13):
        for chi in primitive_characters(q):
            base = l_at_1(chi, HURWITZ_METHOD)
            series = l_at_1(chi, SERIES_METHOD)
            assert abs(base.value - series.value) < 1e-8, (q, chi.label)
            assert base.est_error <= 1e-10
    for chi in primitive_characters(97)[:5]:  # larger modulus, complex values
        base = l_at_1(chi, HURWITZ_METHOD)
        series = l_at_1(chi, SERIES_METHOD)
        assert abs(base.value - series.value) < 1e-8, chi.label
    for q in (7, 8, 11, 23, 163, 487):
        chi = _real_odd_primitive(q)
        fin = l_at_1(chi, FINITE_METHOD)
        hur = l_at_1(chi, HURWITZ_METHOD)
        assert abs(fin.value - hur.value) < 1e-10, q


def series_per_character(chi) -> complex:
    """The series oracle term by term: head, (blocks x q) body and the
    Euler-Maclaurin tail at the block edge, each summed for this chi."""
    q = chi.q
    tab = chi.complex_table
    vals = np.concatenate([tab[1:], tab[:1]])  # chi(1..q)
    j = np.arange(1, q + 1, dtype=float)
    blocks = max(600, 300_000 // q)
    k = np.arange(1, blocks + 1, dtype=float)[:, None]
    body = complex((vals[None, :] / (k * q + j[None, :])).sum())
    edge = (blocks + 1) * q + j
    tail = -np.dot(vals, np.log(edge)) / q + 0.5 * np.dot(vals, 1 / edge) + q * np.dot(vals, 1 / edge**2) / 12
    return complex(np.dot(vals, 1 / j)) + body + complex(tail)


def test_series_weights_match_the_per_character_sum():
    # the same terms summed in another order: equal to a few ulps of |L|
    for q in (5, 12, 97, 300):
        for chi in primitive_characters(q)[:8]:
            assert abs(l_at_1(chi, SERIES_METHOD).value - series_per_character(chi)) < 1e-14, chi.label


def test_block_l_and_lprime_match_the_per_character_dot():
    # the block product sums chi(a) c(a/q) in another order than one dot
    # per character; 4003's indices sit at the edges of its blocks
    group_4003 = character_group(4003)
    chars = [chi for q in (97, 210, 240, 299, 300) for chi in primitive_characters(q)]
    chars += [group_4003[i] for i in (1, 15, 16, 17, 31, 32, 2015, 2016, 3999, 4000, 4001)]
    for chi in chars:
        q = chi.q
        c0, c1 = hurwitz_laurent_pair(q)
        vals = chi.complex_table[1:]
        want_l = complex(np.dot(vals, c0[:-1])) / q
        want_lp = complex(np.dot(vals, c1[:-1])) / q - math.log(q) * want_l
        l1, lp = l_and_lprime_at_1(chi)
        assert abs(l1 - want_l) <= 1e-12 and abs(lp - want_lp) <= 1e-12, chi.label


def test_l_at_1_over_many_moduli_keeps_few_laurent_tables_live():
    # every block of a modulus reads the same Laurent entry, 16 q bytes, so
    # the cache need hold only a few moduli, not one per modulus visited
    qs = [q for q in range(20011, 21000) if is_prime(q)][:12]
    hurwitz_laurent_pair.cache_clear()
    tracemalloc.start()
    try:
        for q in qs:
            l_at_1(DirichletCharacter(unit_group_structure(q), (1,)))
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    live = sum(t.size for t in snapshot.filter_traces([tracemalloc.Filter(True, lfunctions.__file__)]).traces)
    assert live < 6 * 16 * qs[-1], live


def test_l_at_1_rejects_bad_input():
    principal = character_group(5)[0]
    with pytest.raises(PrincipalCharacterError):
        l_at_1(principal)
    imprimitive = [c for c in character_group(6) if not c.is_principal][0]
    with pytest.raises(ValueError):
        l_at_1(imprimitive)


def mp_l_of_s(chi, s) -> mpmath.mpc:
    """L(s, chi) = q^(-s) sum_a chi(a) zeta(s, a/q) in mpmath, s != 1.

    chi(a) is the exact root of unity its integer angle names, so the
    Hurwitz poles cancel to working precision."""
    q, e = chi.q, chi.structure.exponent
    total = mpmath.mpc(0)
    for a in range(1, q):
        ang = int(chi.angles[a])
        if ang >= 0:
            total += mpmath.expjpi(mpmath.mpf(2 * ang) / e) * mpmath.zeta(s, mpmath.mpf(a) / q)
    return mpmath.power(q, -s) * total


def test_lprime_matches_numeric_derivative():
    # centered differences at s = 1 +- eps: O(eps^2) from the truncation,
    # about 10^-40 / eps^2 from cancelling the 1/eps poles at 40 digits
    # (eps = 1e-15 would leave a 1e-11 error of the oracle's own)
    with mpmath.workdps(40):
        eps = mpmath.mpf("1e-12")
        for q in (5, 7, 12, 13, 40):
            for chi in primitive_characters(q):
                l1, lp = l_and_lprime_at_1(chi)
                plus, minus = mp_l_of_s(chi, 1 + eps), mp_l_of_s(chi, 1 - eps)
                want_l = (plus + minus) / 2
                want_lp = (plus - minus) / (2 * eps)
                assert abs(l1 - complex(want_l)) < 1e-14, (q, chi.label)
                assert abs(lp - complex(want_lp)) < 1e-13, (q, chi.label)


def test_re_b_positivity_and_conjugation():
    for q in range(3, 101):
        for chi in primitive_characters(q):
            rb = re_b(chi)
            assert rb > 0, (q, chi.label, rb)
            conj = DirichletCharacter(chi.structure, tuple(-e % d for e, (_, d) in zip(chi.exponents, chi.structure.components)))
            assert rb == pytest.approx(re_b(conj), abs=1e-9)


def test_re_b_identity_shape():
    # reassemble from its pieces for a real even character
    chi5 = [c for c in primitive_characters(5) if c.is_real][0]
    l1, lp = l_and_lprime_at_1(chi5)
    expect = 0.5 * math.log(5 / math.pi) + 0.5 * PSI_AT_HALF + (lp / l1).real
    assert re_b(chi5) == pytest.approx(expect, abs=1e-14)
    chi4 = [c for c in primitive_characters(4)][0]
    assert chi4.parity == 1
    l1, lp = l_and_lprime_at_1(chi4)
    expect = 0.5 * math.log(4 / math.pi) + 0.5 * PSI_AT_1 + (lp / l1).real
    assert re_b(chi4) == pytest.approx(expect, abs=1e-14)


# ----------------------------------------------------------------------
# class numbers
# ----------------------------------------------------------------------


def reference_class_number_bqf(q: int) -> int:
    """h(-q) by the per-b divisor walk: for each b, the divisors a of
    (b^2 + q)/4 with max(b, 1) <= a <= c, edge forms once, others twice."""
    h = 0
    for b in range(q % 2, math.isqrt(q // 3) + 1, 2):
        n = (b * b + q) // 4
        for a in divisors(n):
            if a * a > n:
                break
            if a >= max(b, 1):
                h += 1 if (b == 0 or a == b or a == n // a) else 2
    return h


def _fundamental_qs(limit: int) -> list[int]:
    """Every q with 4 < q <= limit and -q fundamental, ascending."""
    return [q for q in range(5, limit + 1) if is_fundamental_discriminant(q)]


def test_class_number_bqf_matches_reference_loop():
    assert type(class_number_bqf(23)) is int
    for q in _fundamental_qs(20_000):
        assert class_number_bqf(q) == reference_class_number_bqf(q), q


@pytest.mark.slow
def test_class_number_bqf_matches_reference_loop_to_1e5():
    for q in _fundamental_qs(100_000):
        assert class_number_bqf(q) == reference_class_number_bqf(q), q


def test_class_number_bqf_adds_no_factorize_miss():
    # each q's own factorization is the fundamental-discriminant check's, read first
    for q in range(400_001, 400_200):
        if is_fundamental_discriminant(q):
            misses = factorize.cache_info().misses
            assert class_number_bqf(q) > 0
            assert factorize.cache_info().misses == misses, q


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(5, 10**6))
def test_class_number_bqf_equals_class_formula(q):
    assume(is_fundamental_discriminant(q))
    assert class_number_bqf(q) == class_number_via_formula(q)


def test_class_number_bqf_examples():
    assert class_number_bqf(7) == 1
    assert class_number_bqf(23) == 3
    assert class_number_bqf(8) == 1
    assert class_number_bqf(163) == 1
    assert class_number_bqf(20) == 2


def test_class_number_formula_examples():
    near_top = _fundamental_qs(10000)[-1]
    for q in (7, 23, 163, near_top):
        h = class_number_via_formula(q)
        assert type(h) is int
        assert h == class_number_bqf(q)


def test_class_number_errors():
    with pytest.raises(NotFundamentalError):
        class_number_bqf(12)
    with pytest.raises(NotFundamentalError):
        class_number_via_formula(9)
    with pytest.raises(NotFundamentalError):
        class_number_bqf(4)  # below the q > 4 floor


def test_class_number_formula_raises_on_a_remainder(monkeypatch):
    # h(-11) = 1: chi(2) = -1, so the sum over 0 < a < 11/2 is 3 = 3 h;
    # flipping chi(1) makes it 1, which 2 - chi(2) = 3 does not divide
    table = kronecker_character_table(11)
    assert table[2] == -1 and class_number_via_formula(11) == 1
    patched = table.copy()
    patched[1] = -patched[1]
    monkeypatch.setattr(lfunctions, "kronecker_character_table", lambda q: patched)
    with pytest.raises(ArithmeticError, match="q=11"):
        class_number_via_formula(11)


@pytest.mark.parametrize("route", [class_number_bqf, class_number_via_formula])
def test_class_numbers_stop_above_the_modulus_ceiling(route):
    # 10000019 is prime and 3 mod 4, so -q is fundamental: only the ceiling stops it
    with pytest.raises(ModulusTooLargeError, match=f"ceiling {DLOG_CEILING}"):
        route(10000019)


def test_class_number_scan_small():
    for q in _fundamental_qs(500):
        assert class_number_bqf(q) == class_number_via_formula(q), q


def _digamma_real_value(q: int) -> float:
    """(sqrt(q)/pi) L(1, chi_{-q}) with L(1) = -(1/q) sum chi(a) psi_0(a/q)
    over 0 < a < q, psi_0 from mpmath: the analytic class number formula."""
    tab = kronecker_character_table(q)
    with mpmath.workdps(30):
        total = mpmath.fsum(int(tab[a]) * mpmath.digamma(mpmath.mpf(a) / q) for a in range(1, q) if tab[a])
        return float(-mpmath.sqrt(q) / mpmath.pi * total / q)


def test_digamma_value_matches_exact_class_number():
    for q in (7, 23, 24, 163, 1243, 4003, 29_999):
        h = class_number_via_formula(q)
        assert abs(_digamma_real_value(q) - h) < 1e-12, q
        assert h == class_number_bqf(q)


@pytest.mark.slow
def test_class_number_formula_matches_form_count_to_3e4():
    for q in _fundamental_qs(30_000):
        assert class_number_via_formula(q) == class_number_bqf(q), q
