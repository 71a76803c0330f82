"""Special-function kernel: closed-form anchors, dual-route cross-checks,
and scipy as the independent reference."""

import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special as sp

from crlink.exceptions import ConvergenceError
from crlink import specfun
from crlink.specfun import (EULER_GAMMA, _gamma_cf, _gamma_halves, _reg_beta,
                            _series, exp_integral_e1, ln_beta)
from incomplete_gamma import reg_lower_gamma, reg_upper_gamma, upper_gamma_many

# frozen oracle values
P_2_2 = 0.5939941502901619          # 1 - 3e^{-2}, cross-checked below
E1_1 = 0.2193839343955203           # adaptive quadrature of e^{-t}/t on [1, inf)


def reg_beta(m, w):
    """I_w(m, m) at one w in [0, 1/2], through the array kernel."""
    return float(_reg_beta(m, np.array([w]))[0])


def test_reg_lower_gamma_anchors():
    assert reg_lower_gamma(3.0, 0.0) == 0.0
    assert abs(reg_lower_gamma(1.0, math.log(2.0)) - 0.5) < 1e-12


def test_reg_lower_gamma_dual_route():
    # series and continued fraction evaluated on each other's home turf
    # (x^a·e^{−x} over Γ(a+1) for the series, over Γ(a) for the fraction)
    two = np.array([2.0])
    series = float(_series(2.0, two)[0]) * 4.0 * math.exp(-2.0) / 2.0
    cf = 1.0 - float(_gamma_cf(2.0, two)[0]) * 4.0 * math.exp(-2.0)
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
    # a short array gives its elements' values alone, exactly
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
    with pytest.raises(ValueError, match="got nan"):
        exp_integral_e1(math.nan)
    # +inf takes the limit, as the largest double does
    assert exp_integral_e1(math.inf) == 0.0
    assert exp_integral_e1(1.7976931348623157e308) == 0.0


@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("n", [1, 200])
def test_gamma_halves_raises_past_the_term_budget(monkeypatch, lower, n):
    # an element that needs more than MAX_TERMS terms raises, naming a and
    # x, on either side of a + 1 and at any array size
    a = 2.5
    x = np.linspace(1.0, 3.0, n) if lower else np.linspace(3.5, 6.0, n)
    assert np.all((x < a + 1.0) == lower)
    monkeypatch.setattr(specfun, "MAX_TERMS", 3)
    route = "series" if lower else "continued fraction"
    with pytest.raises(ConvergenceError, match=f"{route} did not converge: "
                       f"a=2.5, x=[0-9.]+, max_terms=3$"):
        _gamma_halves(a, x)


def test_ln_beta_anchors():
    assert ln_beta(1.0, 1.0) == 0.0
    assert abs(ln_beta(2.0, 2.0) - math.log(1.0 / 6.0)) < 1e-14
    assert ln_beta(3.0, 5.0) == ln_beta(5.0, 3.0)
    with pytest.raises(ValueError):
        ln_beta(0.0, 1.0)
    for a, b in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                 (1.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite a, b > 0"):
            ln_beta(a, b)


def test_ln_beta_against_scipy():
    rng = np.random.default_rng(13)
    for a, b in rng.uniform(0.5, 50.0, size=(100, 2)):
        ref = sp.betaln(a, b)
        assert abs(ln_beta(a, b) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_reg_beta_at_zero_and_half():
    # I_0(m, m) = 0 and, by symmetry, I_{1/2}(m, m) = 1/2
    rng = np.random.default_rng(3)
    for m in rng.uniform(0.5, 15.0, size=20):
        assert reg_beta(m, 0.0) == 0.0
        assert abs(reg_beta(m, 0.5) - 0.5) <= 1e-9


def test_reg_beta_arcsine_identity():
    # I_w(1/2, 1/2) = (2/π)·asin(√w), the arcsine law
    for w in (0.01, 0.25, 0.5):
        ref = 2.0 / math.pi * math.asin(math.sqrt(w))
        assert abs(reg_beta(0.5, w) - ref) <= 1e-9 * ref


def test_reg_beta_ratio_cdf_reduction():
    # at m = 1, I_w(1, 1) = w: the Beta-prime(1,1) CDF x/(1+x)
    for x in (0.5, 1.0, 4.0):
        w = min(x, 1.0 / x) / (1.0 + min(x, 1.0 / x))
        cdf = reg_beta(1.0, w) if x <= 1.0 else 1.0 - reg_beta(1.0, w)
        assert abs(cdf - x / (1.0 + x)) < 1e-9


def test_reg_beta_array_matches_one_element_calls():
    # each element's value depends on that element alone
    rng = np.random.default_rng(42)
    for m in rng.uniform(0.5, 15.0, size=50):
        w = rng.uniform(0.0, 0.5, size=7)
        many = _reg_beta(m, w)
        assert many.tolist() == [reg_beta(m, v) for v in w]


def test_reg_beta_against_scipy():
    # the fraction on [0, 1/2], the range sf_ratio evaluates it on
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = rng.uniform(0.5, 15.0)
        w = rng.uniform(0.0, 0.5)
        ref = sp.betainc(m, m, w)
        assert abs(reg_beta(m, w) - ref) <= 1e-9 * abs(ref)


def test_reg_beta_nonconvergence():
    # w = 1 − 1e-6 lies far outside [0, 1/2], too close to 1 for the term
    # budget
    with pytest.raises(ConvergenceError, match="m=0.5, w=0.999999, "):
        reg_beta(0.5, 1.0 - 1e-6)


def test_euler_gamma_constant():
    # pins the constant the E1 series depends on
    assert abs(EULER_GAMMA - 0.577215664901532860) < 1e-15
