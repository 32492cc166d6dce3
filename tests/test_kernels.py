import math

import mpmath
import numpy as np
import pytest

from nonresidue import kernels
from nonresidue.kernels import (
    Kernel,
    NoFeasibleLambdaError,
    NonpositiveDenominatorError,
    QuadratureError,
    alpha_table,
    fejer_kernel,
    gamma_kernel,
    largeh_constant,
    limit_constant,
    line_l1,
    mellin_numeric_check,
    optimize_lambda,
    prop62_constant,
    weighted_integral,
)
from nonresidue.lfunctions import EULER_GAMMA


# ----------------------------------------------------------------------
# kernel objects
# ----------------------------------------------------------------------


def test_fejer_pointwise():
    f = fejer_kernel(1.0)
    assert f.line(0.0) == pytest.approx(4.0)
    assert f.mellin(1.0) == pytest.approx(2.0)
    assert f.mellin(math.exp(2.0)) == pytest.approx(0.0, abs=1e-15)
    f2 = fejer_kernel(math.log(2))
    assert f2.at_half == pytest.approx(2.0, rel=1e-14)  # 4 (sqrt2 - 1/sqrt2)^2


def test_gamma_pointwise():
    g = gamma_kernel()
    assert g.line(0.0) == pytest.approx(2 * EULER_GAMMA, rel=1e-14)
    assert g.at_half == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert g.mellin(1.0) == pytest.approx(1 - 2 / math.e, rel=1e-14)
    # continuity through the removable point
    assert g.line(1e-6) == pytest.approx(g.line(0.0), abs=1e-9)


def test_mellin_symmetry_and_positivity():
    g = gamma_kernel()
    f = fejer_kernel(1.3)
    for u in np.geomspace(1e-3, 1e3, 41):
        assert g.mellin(float(u)) == pytest.approx(g.mellin(float(1 / u)), abs=1e-10)
        assert f.mellin(float(u)) == pytest.approx(f.mellin(float(1 / u)), abs=1e-10)
        assert g.mellin(float(u)) > 0
    for u in np.geomspace(math.exp(-2.6) + 1e-6, math.exp(2.6) - 1e-3, 31):
        assert f.mellin(float(u)) > 0


# ----------------------------------------------------------------------
# line integrals
# ----------------------------------------------------------------------


def test_fejer_line_l1_closed_form():
    for alpha in (0.5, 1.0, 3.0):
        assert line_l1(fejer_kernel(alpha)) == pytest.approx(2 * alpha, abs=1e-8)
        assert type(line_l1(fejer_kernel(alpha))) is float


def test_gamma_line_l1_value():
    l1 = line_l1(gamma_kernel())
    assert 0.291 <= l1 <= 0.292


def test_mellin_numeric_agrees_with_closed_form():
    g = gamma_kernel()
    for u in (0.3, 1.0, math.e, 5.0):
        assert mellin_numeric_check(g, u) == pytest.approx(g.mellin(u), abs=1e-6)
    f = fejer_kernel(1.0)
    assert mellin_numeric_check(f, math.e) == pytest.approx(1.0, abs=1e-6)
    for u in (0.5, 2.0, math.exp(2.0)):
        assert mellin_numeric_check(f, u) == pytest.approx(f.mellin(u), abs=1e-6)
    # numeric evaluation inherits the u <-> 1/u symmetry
    assert mellin_numeric_check(g, 2.0) == pytest.approx(mellin_numeric_check(g, 0.5), abs=1e-8)


def test_mellin_bounded_by_line_l1():
    for kern in (gamma_kernel(), fejer_kernel(0.7), fejer_kernel(2.0)):
        l1 = line_l1(kern)
        for u in np.geomspace(0.05, 20.0, 25):
            assert kern.mellin(float(u)) <= l1 + 1e-9


# ----------------------------------------------------------------------
# weighted integrals and inversion
# ----------------------------------------------------------------------


def test_weighted_integral_closed_form_fejer():
    for alpha in (0.5, 1.0, 2.0, 4.0):
        w = weighted_integral(fejer_kernel(alpha), 1.0)
        assert w == pytest.approx(4 * alpha - 4 + 4 * math.exp(-alpha), abs=1e-10)


def test_weighted_integral_small_lambda_vanishes():
    g = gamma_kernel()
    assert weighted_integral(g, 1e-8) < 1e-4
    f = fejer_kernel(1.0)
    assert weighted_integral(f, math.exp(-2.0) / 2) == pytest.approx(0.0, abs=1e-15)


def test_weighted_integral_rejects_nonpositive_or_nan_lambda():
    for lam in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(ValueError):
            weighted_integral(gamma_kernel(), lam)
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            fejer_kernel(alpha)


def test_gamma_weighted_integral_against_mpmath():
    # W(lam) = int_0^lam (1 - e^(-1/u) - e^(-u)) u^(-1/2) du; with u = t^2 the
    # integrand 2 (1 - e^(-1/t^2) - e^(-t^2)) is smooth on [0, sqrt(lam)].
    g = gamma_kernel()
    with mpmath.workdps(30):

        def f(t):
            return 2 * (1 - mpmath.exp(-1 / t**2) - mpmath.exp(-(t**2))) if t else mpmath.mpf(0)

        for lam in (1.0, 3.9, 6.55, 8.35, math.inf):
            top = mpmath.sqrt(lam) if lam < math.inf else mpmath.inf
            ref = mpmath.quad(f, [0, 1, top])
            assert abs(weighted_integral(g, lam) - ref) < 1e-11, lam
        # W(inf) = sqrt(pi); tanh-sinh's infinite tail is good to about 1e-19 here
        assert abs(ref - mpmath.sqrt(mpmath.pi)) < 1e-17
    assert abs(weighted_integral(g, math.inf) - math.sqrt(math.pi)) < 1e-11


def test_mellin_inversion_anchor():
    for kern in (gamma_kernel(), fejer_kernel(1.0), fejer_kernel(2.0)):
        assert weighted_integral(kern, math.inf) == pytest.approx(kern.at_half, abs=1e-6)
    assert weighted_integral(gamma_kernel(), math.inf) == pytest.approx(
        math.sqrt(math.pi), abs=1e-6
    )


# ----------------------------------------------------------------------
# bound constants
# ----------------------------------------------------------------------


def test_prop62_headline_constants():
    g = gamma_kernel()
    assert prop62_constant(g, 8.35, 2).c == pytest.approx(0.42, abs=0.01)
    assert prop62_constant(g, 6.55, 3).c == pytest.approx(0.49, abs=0.01)
    assert prop62_constant(g, 3.9, math.inf).c == pytest.approx(0.51, abs=0.01)


def test_prop62_denominator_guard():
    g = gamma_kernel()
    with pytest.raises(NonpositiveDenominatorError):
        prop62_constant(g, 0.05, 2)
    with pytest.raises(NoFeasibleLambdaError):
        optimize_lambda(g, 2, lo=0.01, hi=0.05, grid=10)


def test_optimizer_matches_reference_choices():
    g = gamma_kernel()
    for h, lam_ref in ((2, 8.35), (3, 6.55), (math.inf, 3.9)):
        lam_star, c_star = optimize_lambda(g, h)
        assert abs(lam_star - lam_ref) < 0.25, (h, lam_star)
        ref_c = prop62_constant(g, lam_ref, h).c
        assert c_star <= ref_c + 1e-9
        assert c_star >= ref_c - 0.005  # the stated choices are near-optimal


def test_alpha_table_rounds_up_optimizer():
    g = gamma_kernel()
    for h in (2, 3):
        _, c_star = optimize_lambda(g, h)
        assert math.ceil(c_star * 100 - 1e-9) / 100 == alpha_table(h)
    _, c_inf = optimize_lambda(g, math.inf)
    assert math.ceil(c_inf * 100 - 1e-9) / 100 == alpha_table(math.inf) == 0.51
    assert alpha_table(7) == 0.51
    for h in (4, 10):
        _, c_star = optimize_lambda(g, h)
        assert c_star <= 0.51 + 0.005, (h, c_star)


def test_limit_constant():
    assert limit_constant(2) == pytest.approx(1 / 9)
    assert limit_constant(math.inf) == 0.25
    vals = [limit_constant(h) for h in (2, 3, 4, 10, 100)]
    assert vals == sorted(vals)


def test_largeh_constant():
    l8 = math.log(8)
    assert largeh_constant(4) == pytest.approx(0.25 * (3 / 4) ** 2 * (l8 / (l8 - 2)) ** 2, rel=1e-15)
    assert largeh_constant(4) == pytest.approx(96.35, abs=0.05)
    h = 1e6
    asym = 0.25 * (1 + 4 / math.log(2 * h))
    assert abs(largeh_constant(h) - asym) < 0.02
    assert largeh_constant(math.inf) == 0.25  # the limit, as for limit_constant
    with pytest.raises(ValueError):
        largeh_constant(3)


def test_fejer_choice_against_largeh_closed_form():
    for h in (1000, 10000, 100000):
        alpha = 0.5 * math.log(2 * h)
        c = prop62_constant(fejer_kernel(alpha), 1.0, h).c
        ref = largeh_constant(h)
        assert c <= ref * (1 + 10 / math.sqrt(h))
        assert c <= ref + 1e-9  # dropped denominator terms are positive


def test_floor_over_grid():
    kernels = (gamma_kernel(), fejer_kernel(1.0))
    for kern in kernels:
        for lam in (0.5, 2.0, 8.35, 20.0):
            for h in (2, 3, 10, math.inf):
                try:
                    bc = prop62_constant(kern, lam, h)
                except NonpositiveDenominatorError:
                    continue
                assert bc.c >= limit_constant(h) - 1e-12, (kern.name, lam, h)


def test_custom_kernel_registration():
    # a third kernel goes through the generic numeric Mellin path
    base = gamma_kernel()
    custom = Kernel(
        kind="reflected-gamma-copy",
        params=(),
        at_half=base.at_half,
        at_zero=base.at_zero,
        strip=base.strip,
        decay=base.decay,
        line=base.line,
        mellin=base.mellin,
    )
    for u in (0.5, 1.0, 3.0):
        assert mellin_numeric_check(custom, u) == pytest.approx(custom.mellin(u), abs=1e-6)
    assert weighted_integral(custom, 2.0) == pytest.approx(weighted_integral(base, 2.0), abs=1e-10)


# ----------------------------------------------------------------------
# quadrature cache
# ----------------------------------------------------------------------

LAMBDAS = (0.5, 1.0, 3.9, 8.35, 20.0, math.inf)


def test_warm_and_cold_weighted_integral_are_bit_identical():
    for kern in (gamma_kernel(), fejer_kernel(1.0), fejer_kernel(2.5)):
        kernels._quad_cache.clear()
        cold = []
        for lam in LAMBDAS:
            cold.append(weighted_integral(kern, lam))
            kernels._quad_cache.clear()
        warm = [weighted_integral(kern, lam) for lam in LAMBDAS]
        assert [weighted_integral(kern, lam) for lam in LAMBDAS] == warm == cold, kern.name
        assert all(type(w) is float for w in warm)


def test_optimize_lambda_independent_of_cache_state():
    g = gamma_kernel()
    hs = (2, 3, math.inf)
    forward = [optimize_lambda(g, h) for h in hs]
    reverse = [optimize_lambda(g, h) for h in reversed(hs)][::-1]
    cleared = []
    for h in hs:
        kernels._quad_cache.clear()
        cleared.append(optimize_lambda(g, h))
    assert forward == reverse == cleared
    assert all(type(lam) is float and type(c) is float for lam, c in forward)


def test_cached_pieces_still_fail_the_error_budget(monkeypatch):
    real_quad = kernels.quad
    calls = []

    def sloppy_quad(*args, **kwargs):
        calls.append(args[1:3])
        return real_quad(*args, **kwargs)[0], 1e-9

    kernels._quad_cache.clear()
    monkeypatch.setattr(kernels, "quad", sloppy_quad)
    try:
        for repeat in range(2):
            with pytest.raises(QuadratureError):
                weighted_integral(gamma_kernel(), 3.9)
            with pytest.raises(QuadratureError):
                line_l1(fejer_kernel(1.0))
            if not repeat:
                first = len(calls)
        assert len(calls) == first  # the repeat read every piece from the cache
    finally:
        kernels._quad_cache.clear()


def test_quadrature_cache_stays_within_its_cap(monkeypatch):
    real_quad = kernels.quad
    calls = [0]

    def counted_quad(*args, **kwargs):
        calls[0] += 1
        return real_quad(*args, **kwargs)

    kernels._quad_cache.clear()
    monkeypatch.setattr(kernels, "quad", counted_quad)
    alphas = [1.0 + 0.05 * k for k in range(40)]
    for alpha in alphas:
        optimize_lambda(fejer_kernel(alpha), math.inf)
        assert len(kernels._quad_cache) <= kernels._QUAD_CACHE_SIZE
    assert calls[0] > kernels._QUAD_CACHE_SIZE  # the sweep did overflow the cap
    # least recently used entries went first
    assert ("l1", fejer_kernel(alphas[-1])._key()) in kernels._quad_cache
    assert ("l1", fejer_kernel(alphas[0])._key()) not in kernels._quad_cache
    kernels._quad_cache.clear()
