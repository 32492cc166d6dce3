import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

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
    # Gamma(1/2) = sqrt(pi) and Gamma(-1/2) = -2 sqrt(pi): the same float either way
    assert g.at_half == math.sqrt(math.pi) == float(-(scipy.special.gamma(0.5) + scipy.special.gamma(-0.5)))
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


def test_fejer_line_l1_closed_form(monkeypatch):
    calls = []
    monkeypatch.setattr(kernels, "quad", lambda *args, **kwargs: calls.append(args))
    for alpha in (0.5, 1.0, 3.0, 7.25, 1e-3):
        assert line_l1(fejer_kernel(alpha)) == 2 * alpha
        assert type(line_l1(fejer_kernel(alpha))) is float
    assert type(line_l1(fejer_kernel(2))) is float
    assert not calls  # the closed form, with no quadrature


@pytest.fixture(scope="module")
def mp_gamma_l1():
    """(1/pi) int_0^inf |-2 Re Gamma(it)| dt in mpmath at 20 digits, split
    at the sign changes of Re Gamma(it), each refined with findroot."""
    with mpmath.workdps(20):

        def f(t):
            return -2 * mpmath.re(mpmath.gamma(mpmath.mpc(0, t))) if t else 2 * mpmath.euler

        grid = [mpmath.mpf(k) / 20 for k in range(1, 40 * 20)]  # past t = 40 the mass is < 1e-25
        vals = [f(t) for t in grid]
        zeros = [mpmath.findroot(f, (a, b), solver="anderson") for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]) if fa * fb < 0]
        edges = [mpmath.mpf(0)] + zeros + [mpmath.inf]
        return +sum(abs(mpmath.quad(f, [a, b])) for a, b in zip(edges, edges[1:])) / mpmath.pi


def test_gamma_line_l1_value(mp_gamma_l1):
    l1 = line_l1(gamma_kernel())
    assert 0.291 <= l1 <= 0.292
    assert abs(l1 - mp_gamma_l1) < 1e-12


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


def test_fejer_mellin_check_to_1e_14():
    # (2 sin(alpha t)/t)^2 cos(t log u) has no cancellation to lose digits to;
    # the grid is criterion 05's plus the checklist's u
    from nonresidue.cli import FEJER_ALPHAS

    for alpha in FEJER_ALPHAS:
        kern = fejer_kernel(alpha)
        for u in [*np.geomspace(0.2, math.exp(2 * alpha), 7), 0.5, 1.0, math.e]:
            assert abs(mellin_numeric_check(kern, float(u)) - kern.mellin(float(u))) <= 1e-14, (alpha, u)


def test_fejer_mellin_check_integrates_the_kernels_line():
    calls = []
    kern = fejer_kernel(1.0)

    def spy(t):
        calls.append(t)
        return kern.line(t)

    spied = dataclasses.replace(kern, line=spy)
    assert mellin_numeric_check(spied, math.e) == mellin_numeric_check(kern, math.e)
    assert calls


def test_mellin_numeric_check_rejects_u_not_finite_and_positive():
    for u in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            mellin_numeric_check(gamma_kernel(), u)


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


def mp_gamma_w(lam: float) -> mpmath.mpf:
    """The Gamma kernel's W(lam) in mpmath at the working precision."""

    # W(lam) = int_0^lam (1 - e^(-1/u) - e^(-u)) u^(-1/2) du; with u = t^2 the
    # integrand 2 (1 - e^(-1/t^2) - e^(-t^2)) is smooth on [0, sqrt(lam)].
    def f(t):
        return 2 * (1 - mpmath.exp(-1 / t**2) - mpmath.exp(-(t**2))) if t else mpmath.mpf(0)

    top = mpmath.sqrt(lam) if lam < math.inf else mpmath.inf
    return mpmath.quad(f, [0, 1, top])


def test_gamma_weighted_integral_against_mpmath():
    g = gamma_kernel()
    with mpmath.workdps(30):
        for lam in (1.0, 3.9, 6.55, 8.35, math.inf):
            ref = mp_gamma_w(lam)
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
    assert prop62_constant(g, 8.35, 2) == pytest.approx(0.42, abs=0.01)
    assert prop62_constant(g, 6.55, 3) == pytest.approx(0.49, abs=0.01)
    assert prop62_constant(g, 3.9, math.inf) == pytest.approx(0.51, abs=0.01)


def test_prop62_headline_constants_against_mpmath(mp_gamma_l1):
    # c = lam ((h-1) L1 / (h W - K(1/2)/2))^2 with K(1/2) = sqrt(pi)
    g = gamma_kernel()
    with mpmath.workdps(30):
        for lam, h in ((8.35, 2), (6.55, 3), (3.9, math.inf)):
            w = mp_gamma_w(lam)
            if math.isinf(h):
                want = lam * (mp_gamma_l1 / w) ** 2
            else:
                want = lam * ((h - 1) * mp_gamma_l1 / (h * w - mpmath.sqrt(mpmath.pi) / 2)) ** 2
            assert abs(prop62_constant(g, lam, h) / want - 1) < 1e-10, (lam, h)


def test_prop62_denominator_guard():
    g = gamma_kernel()
    with pytest.raises(NonpositiveDenominatorError):
        prop62_constant(g, 0.05, 2)
    with pytest.raises(NoFeasibleLambdaError):
        optimize_lambda(fejer_kernel(4.5), 2)  # h W(lambda) <= K(1/2)/2 at every grid point of [1, 20]


def test_optimizer_matches_reference_choices():
    g = gamma_kernel()
    for h, lam_ref in ((2, 8.35), (3, 6.55), (math.inf, 3.9)):
        lam_star, c_star = optimize_lambda(g, h)
        assert abs(lam_star - lam_ref) < 0.25, (h, lam_star)
        ref_c = prop62_constant(g, lam_ref, h)
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
        c = prop62_constant(fejer_kernel(alpha), 1.0, h)
        ref = largeh_constant(h)
        assert c <= ref * (1 + 10 / math.sqrt(h))
        assert c <= ref + 1e-9  # dropped denominator terms are positive


def test_floor_over_grid():
    kernels = (gamma_kernel(), fejer_kernel(1.0))
    for kern in kernels:
        for lam in (0.5, 2.0, 8.35, 20.0):
            for h in (2, 3, 10, math.inf):
                try:
                    c = prop62_constant(kern, lam, h)
                except NonpositiveDenominatorError:
                    continue
                assert c >= limit_constant(h) - 1e-12, (kern.name, lam, h)


def test_kernels_are_keyed_by_kind_and_params():
    assert fejer_kernel(1.0) == fejer_kernel(1.0) != fejer_kernel(1.5)
    assert hash(gamma_kernel()) == hash(gamma_kernel())
    base = gamma_kernel()
    with pytest.raises(ValueError):
        Kernel(kind="reflected-gamma-copy", params=(), at_half=base.at_half, line=base.line, mellin=base.mellin, weighted=base.weighted)


# ----------------------------------------------------------------------
# closed-form W(lambda) against mpmath and the former quadrature
# ----------------------------------------------------------------------


def mp_gamma_w_closed(lam: float) -> mpmath.mpf:
    """The Gamma kernel's W(lam) = 2 sqrt(lam) - gamma(1/2, lam) - Gamma(-1/2, 1/lam)
    from mpmath's incomplete gamma at the working precision."""
    lam = mpmath.mpf(lam)
    return 2 * mpmath.sqrt(lam) - mpmath.gammainc(0.5, 0, lam) - mpmath.gammainc(-0.5, 1 / lam)


def test_gamma_weighted_integral_closed_form_against_mpmath():
    g = gamma_kernel()
    lams = [float(v) for v in np.geomspace(1e-6, 1e6, 241)] + [1 - 1e-3, 1 + 1e-3, 1.0]
    with mpmath.workdps(30):
        for lam in lams:
            ref = mp_gamma_w_closed(lam)
            assert abs(weighted_integral(g, lam) / ref - 1) <= 1e-14, lam
    assert weighted_integral(g, math.inf) == math.sqrt(math.pi)


def mp_fejer_w(alpha: float, lam: float) -> mpmath.mpf:
    """int_{-2 alpha}^{min(log lam, 2 alpha)} (2 alpha - |v|) e^(v/2) dv by mpmath quadrature."""
    a = mpmath.mpf(alpha)
    top = min(mpmath.log(lam), 2 * a) if lam < math.inf else 2 * a
    if top <= -2 * a:
        return mpmath.mpf(0)
    edges = [-2 * a, top] if top <= 0 else [-2 * a, 0, top]
    return mpmath.quad(lambda v: (2 * a - abs(v)) * mpmath.exp(v / 2), edges)


def test_fejer_weighted_integral_closed_form_against_mpmath():
    with mpmath.workdps(30):
        for alpha in [0.25 * k for k in range(1, 17)]:
            f = fejer_kernel(alpha)
            lo, hi = math.exp(-2 * alpha), math.exp(2 * alpha)
            lams = [lo / 2, lo, lo * (1 + 1e-4), 1.0, hi, 2 * hi, math.inf]
            lams += [float(v) for v in np.geomspace(lo, hi, 9)[1:-1]]
            for lam in lams:
                ref = mp_fejer_w(alpha, lam)
                assert abs(weighted_integral(f, lam) - ref) <= 1e-14 * max(1.0, ref), (alpha, lam)


def quad_weighted_integral(kernel: Kernel, lam: float) -> float:
    """W(lam) by the two quadrature pieces that computed it before the closed
    forms: (0, min(lam, 1)] directly, and (1, lam] folded by Ktilde(u) =
    Ktilde(1/u) and u = 1/w^2 onto w in (1/sqrt(lam), 1]."""
    breaks = [math.exp(-2 * kernel.params[0]), math.exp(2 * kernel.params[0])] if kernel.kind == "fejer" else []

    def f_low(u):
        return kernel.mellin(u) / math.sqrt(u) if u > 0 else 0.0

    def f_high(w):
        return 2.0 * kernel.mellin(w * w) / (w * w) if w > 0 else 0.0

    upper = min(lam, 1.0)
    pts = [b for b in breaks if 0 < b < upper] or None
    total, err = scipy.integrate.quad(f_low, 0.0, upper, epsabs=1e-13, epsrel=1e-12, limit=400, points=pts)
    if lam > 1.0:
        w_lo = 0.0 if math.isinf(lam) else 1.0 / math.sqrt(lam)
        pts = [math.sqrt(b) for b in breaks if w_lo < math.sqrt(b) < 1.0] or None
        high, high_err = scipy.integrate.quad(f_high, w_lo, 1.0, epsabs=1e-13, epsrel=1e-12, limit=400, points=pts)
        total, err = total + high, err + high_err
    assert err <= 1e-10
    return total


LAMBDAS = (0.5, 1.0, 3.9, 8.35, 20.0, math.inf)


def test_closed_form_agrees_with_the_quadrature_oracle():
    for kern in (gamma_kernel(), fejer_kernel(0.25), fejer_kernel(1.0), fejer_kernel(2.5), fejer_kernel(4.0)):
        for lam in LAMBDAS + (0.05, 0.2, 1.5, 60.0):
            assert abs(weighted_integral(kern, lam) - quad_weighted_integral(kern, lam)) < 1e-11, (kern.name, lam)


def test_weighted_integral_array_matches_scalar_calls():
    lams = np.concatenate([np.geomspace(1e-3, 1e3, 57), [math.inf]])
    for kern in (gamma_kernel(), fejer_kernel(0.5), fejer_kernel(3.0)):
        out = weighted_integral(kern, lams)
        assert isinstance(out, np.ndarray) and out.shape == lams.shape
        assert out.tolist() == [weighted_integral(kern, float(lam)) for lam in lams], kern.name
    with pytest.raises(ValueError):
        weighted_integral(gamma_kernel(), np.array([1.0, 0.0]))


def test_weighted_integral_is_finite_nonnegative_and_monotone(recwarn):
    lams = np.concatenate([np.geomspace(1e-300, 1e300, 1001), [math.inf]])
    for kern in (gamma_kernel(), fejer_kernel(0.01), fejer_kernel(1.0), fejer_kernel(4.0)):
        w = weighted_integral(kern, lams)
        assert np.all(np.isfinite(w)) and np.all(w >= 0), kern.name
        assert np.all(np.diff(w) >= -1e-15 * np.maximum(1.0, w[1:])), kern.name
    assert not recwarn.list  # inf * 0 at lambda = inf is handled, not warned


# ----------------------------------------------------------------------
# the reflected-Gamma line_l1's quadrature cache, the only cache left in kernels
# ----------------------------------------------------------------------


def clear_quad_caches():
    kernels._gamma_line_l1_quadrature.cache_clear()


def test_warm_and_cold_weighted_integral_are_bit_identical():
    # W has no cache; the Gamma kernel's constants also read line_l1's cached quadrature
    for kern in (gamma_kernel(), fejer_kernel(1.0), fejer_kernel(2.5)):
        clear_quad_caches()
        cold = []
        for lam in LAMBDAS:
            cold.append((weighted_integral(kern, lam), prop62_constant(kern, lam, math.inf)))
            clear_quad_caches()
        warm = [(weighted_integral(kern, lam), prop62_constant(kern, lam, math.inf)) for lam in LAMBDAS]
        again = [(weighted_integral(kern, lam), prop62_constant(kern, lam, math.inf)) for lam in LAMBDAS]
        assert again == warm == cold, kern.name
        assert all(type(w) is float and type(c) is float for w, c in warm)


def test_optimize_lambda_independent_of_cache_state():
    g = gamma_kernel()
    hs = (2, 3, math.inf)
    forward = [optimize_lambda(g, h) for h in hs]
    reverse = [optimize_lambda(g, h) for h in reversed(hs)][::-1]
    cleared = []
    for h in hs:
        clear_quad_caches()
        cleared.append(optimize_lambda(g, h))
    assert forward == reverse == cleared
    assert all(type(lam) is float and type(c) is float for lam, c in forward)


def test_cached_pieces_still_fail_the_error_budget(monkeypatch):
    real_quad = kernels.quad
    calls = []

    def sloppy_quad(*args, **kwargs):
        calls.append(args[1:3])
        return real_quad(*args, **kwargs)[0], 1e-9

    clear_quad_caches()
    monkeypatch.setattr(kernels, "quad", sloppy_quad)
    try:
        assert weighted_integral(gamma_kernel(), 3.9) > 0 and not calls  # no quadrature in W
        for repeat in range(2):
            with pytest.raises(QuadratureError):
                prop62_constant(gamma_kernel(), 3.9, 2)
            if not repeat:
                first = len(calls)
        assert first and len(calls) == first  # the repeat read line_l1's pieces from the cache
    finally:
        clear_quad_caches()


def test_quad_passes_full_output_through():
    # perfbench's tracer reads the evaluation count from full_output's info dict
    val, err, info = kernels.quad(math.cos, 0.0, 1.0, full_output=1)
    assert (val, err) == scipy.integrate.quad(math.cos, 0.0, 1.0)
    assert info["neval"] > 0


def test_sec62_w1_quadrature_goes_through_kernels_quad(monkeypatch):
    from nonresidue.cli import CHECKS, FEJER_ALPHAS

    (sec62,) = [c for c in CHECKS if c.id == "sec62"]
    real_quad = kernels.quad
    spans = []

    def counted(f, a, b, *args, **kwargs):
        spans.append((a, b))
        return real_quad(f, a, b, *args, **kwargs)

    monkeypatch.setattr(kernels, "quad", counted)
    assert all(r.verdict == "pass" for r in sec62.run("quick", 1))
    for alpha in FEJER_ALPHAS:  # W(1) integrates the Mellin transform over [e^(-2 alpha), 1]
        assert spans.count((math.exp(-2 * alpha), 1.0)) == 1, alpha


def test_sec62_l1_rows_check_line_l1(monkeypatch):
    # the l1 rows hold line_l1 against the contour quadrature, so a
    # squared-sine L1 off by 1e-7 fails them
    from nonresidue.cli import CHECKS, FEJER_ALPHAS

    (sec62,) = [c for c in CHECKS if c.id == "sec62"]
    assert all(r.verdict == "pass" for r in sec62.run("quick", 1))
    real_l1 = kernels.line_l1
    monkeypatch.setattr(kernels, "line_l1", lambda k: real_l1(k) + (1e-7 if k.kind == "fejer" else 0.0))
    failed = {r.target for r in sec62.run("quick", 1) if r.verdict == "fail"}
    assert failed == {f"l1(alpha={alpha:g})-vs-2alpha" for alpha in FEJER_ALPHAS}


def test_sec62_w1_rows_check_weighted_integral(monkeypatch):
    # the W(1) rows hold the closed form the constants use against the
    # quadrature, so a squared-sine W off by 1e-9 fails them and no other row
    from nonresidue.cli import CHECKS, FEJER_ALPHAS

    real_w = kernels.weighted_integral
    monkeypatch.setattr(kernels, "weighted_integral", lambda k, lam: real_w(k, lam) + (1e-9 if k.kind == "fejer" else 0.0))
    failed = [r.target for check in CHECKS for r in check.run("quick", 1) if r.verdict == "fail"]
    assert sorted(failed) == sorted(f"W(1,alpha={alpha:g})-closed-form" for alpha in FEJER_ALPHAS)
