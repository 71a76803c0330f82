"""Special-function kernel: closed-form anchors, dual-route cross-checks,
and scipy as the independent reference."""

import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special as sp

from crlink.exceptions import ConvergenceError
from crlink.specfun import (EULER_GAMMA, _gamma_cf, _hyp2f1_series,
                            _series_sum, exp_integral_e1, ln_beta)
from incomplete_gamma import reg_lower_gamma, reg_upper_gamma, upper_gamma_many

# frozen oracle values
P_2_2 = 0.5939941502901619          # 1 - 3e^{-2}, cross-checked below
E1_1 = 0.2193839343955203           # adaptive quadrature of e^{-t}/t on [1, inf)


def hyp2f1(a, b, c, z):
    """₂F₁(a,b;c;z) for z <= 0: the Pfaff transformation
    (1−z)^{−a} ₂F₁(a, c−b; c; z/(z−1)) onto the series, as cdf_ratio uses it."""
    return (1.0 - z) ** (-a) * float(_hyp2f1_series(a, c - b, c, z / (z - 1.0)))


def test_reg_lower_gamma_anchors():
    assert reg_lower_gamma(3.0, 0.0) == 0.0
    assert abs(reg_lower_gamma(1.0, math.log(2.0)) - 0.5) < 1e-12


def test_reg_lower_gamma_dual_route():
    # series and continued fraction evaluated on each other's home turf
    # (x^a·e^{−x} over Γ(a+1) for the series, over Γ(a) for the fraction)
    series = _series_sum(2.0, 2.0) * 4.0 * math.exp(-2.0) / 2.0
    cf = 1.0 - _gamma_cf(2.0, 2.0) * 4.0 * math.exp(-2.0)
    assert abs(series - cf) < 1e-10
    assert abs(series - P_2_2) < 1e-10
    assert abs(reg_lower_gamma(2.0, 2.0) - P_2_2) < 1e-10


def test_reg_lower_gamma_against_scipy():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.uniform(0.3, 20.0)
        x = rng.uniform(0.0, 50.0)
        assert abs(reg_lower_gamma(a, x) - sp.gammainc(a, x)) < 1e-11


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
def test_reg_lower_gamma_monotone_onto_unit(a):
    xs = np.linspace(0.0, 60.0, 400)
    vals = [reg_lower_gamma(a, x) for x in xs]
    assert vals[0] == 0.0
    assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert vals[-1] > 1.0 - 1e-12


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
def test_reg_lower_gamma_derivative_is_gamma_pdf(a):
    rng = np.random.default_rng(5)
    h = 1e-5
    for x in rng.uniform(0.05, 15.0, size=100):
        num = (reg_lower_gamma(a, x + h) - reg_lower_gamma(a, x - h)) / (2 * h)
        pdf = math.exp((a - 1.0) * math.log(x) - x - math.lgamma(a))
        assert abs(num - pdf) < 1e-6


@pytest.mark.parametrize("a", [0.5, 0.7, 1.5, 2.5, 7.3, 13.1, 59.5])
def test_gamma_halves_array_matches_scalar(a):
    # Q over an array from _gamma_halves against the scalar selection, on
    # both sides of the series/continued-fraction switch at a + 1, the
    # origin, and the tail down to where Q leaves the normal range
    x = np.concatenate([[0.0, a + 1.0], np.geomspace(1e-300, 1600.0, 3001)])
    many = upper_gamma_many(a, x)
    ref = np.array([reg_upper_gamma(a, float(v)) for v in x])
    normal = ref > 1e-300
    assert np.all(np.abs(many - ref)[normal] <= 1e-12 * ref[normal])
    assert np.all(many[~normal] <= 1e-299)
    assert many[0] == 1.0
    # a short array takes the scalar loop and its values exactly
    short = x[::500]
    assert upper_gamma_many(a, short).tolist() == [
        reg_upper_gamma(a, float(v)) for v in short]
    assert upper_gamma_many(a, 2.0).shape == ()


def test_e1_anchor_and_tail_bound():
    assert abs(exp_integral_e1(1.0) - E1_1) < 1e-10 * E1_1
    quad, _ = sp_integrate.quad(lambda t: math.exp(-t) / t, 1.0, np.inf)
    assert abs(exp_integral_e1(1.0) - quad) < 1e-10
    assert exp_integral_e1(50.0) < math.exp(-50.0)
    assert exp_integral_e1(0.5) > exp_integral_e1(1.0)


def test_e1_bracketing_bound():
    for x in np.linspace(0.01, 10.0, 200):
        lo = 0.5 * math.exp(-x) * math.log1p(1.0 / x)
        hi = math.exp(-x) * math.log1p(1.0 / x)
        assert lo < exp_integral_e1(x) < hi


def test_e1_against_scipy():
    for x in np.geomspace(1e-3, 300.0, 120):
        ref = sp.exp1(x)
        assert abs(exp_integral_e1(x) - ref) <= 1e-10 * max(ref, 1e-300)


def test_e1_domain():
    with pytest.raises(ValueError):
        exp_integral_e1(0.0)
    with pytest.raises(ValueError):
        exp_integral_e1(-2.0)


def test_ln_beta_anchors():
    assert ln_beta(1.0, 1.0) == 0.0
    assert abs(ln_beta(2.0, 2.0) - math.log(1.0 / 6.0)) < 1e-14
    assert ln_beta(3.0, 5.0) == ln_beta(5.0, 3.0)
    with pytest.raises(ValueError):
        ln_beta(0.0, 1.0)


def test_ln_beta_against_scipy():
    rng = np.random.default_rng(13)
    for a, b in rng.uniform(0.5, 50.0, size=(100, 2)):
        ref = sp.betaln(a, b)
        assert abs(ln_beta(a, b) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_hyp2f1_at_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.uniform(0.1, 4.0, size=2)
        c = rng.uniform(0.5, 5.0)
        assert hyp2f1(a, b, c, 0.0) == 1.0


def test_hyp2f1_log_identity():
    # 2F1(1,1;2;-x) = ln(1+x)/x
    for x in (0.25, 1.0, 3.0):
        ref = math.log1p(x) / x
        assert abs(hyp2f1(1.0, 1.0, 2.0, -x) - ref) <= 1e-9 * ref


def test_hyp2f1_ratio_cdf_reduction():
    # (1/B(1,1)) * x * 2F1(1,2;2;-x) must equal x/(1+x)
    for x in (0.5, 1.0, 4.0):
        lhs = math.exp(-ln_beta(1.0, 1.0)) * x * hyp2f1(1.0, 2.0, 2.0, -x)
        assert abs(lhs - x / (1.0 + x)) < 1e-9


def test_hyp2f1_symmetry_random_tuples():
    rng = np.random.default_rng(42)
    for _ in range(50):
        a, b = rng.uniform(0.1, 5.0, size=2)
        c = rng.uniform(0.5, 6.0)
        z = -rng.uniform(0.0, 12.0)
        v1 = hyp2f1(a, b, c, z)
        v2 = hyp2f1(b, a, c, z)
        assert abs(v1 - v2) <= 1e-9 * max(abs(v1), 1e-30)


def test_hyp2f1_series_against_scipy():
    # the series on [0, 1/2], the range cdf_ratio evaluates it on
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = rng.uniform(0.1, 5.0, size=2)
        c = rng.uniform(0.5, 6.0)
        w = rng.uniform(0.0, 0.5)
        ref = sp.hyp2f1(a, b, c, w)
        assert abs(_hyp2f1_series(a, b, c, w) - ref) <= 1e-9 * abs(ref)


def test_hyp2f1_series_nonconvergence():
    # z = −500 maps to w = 500/501, too close to 1 for the term budget
    with pytest.raises(ConvergenceError):
        _hyp2f1_series(0.5, 0.9, 1.2, 500.0 / 501.0)


def test_euler_gamma_constant():
    # pins the constant the E1 series depends on
    assert abs(EULER_GAMMA - 0.577215664901532860) < 1e-15
