"""Best-of-L order statistics: closed forms, dominance, and sampling."""

import math

import numpy as np
import pytest

from crlink.fading import LinkKind, SnrDistribution, nakagami, rayleigh
from crlink.mud import MudDistribution, mud_cdf, mud_pdf, mud_sample
from crlink.numerics import integrate, integrate_to_inf


def _direct(spec_mean=1.0, L=1, m=1.0):
    return MudDistribution(
        SnrDistribution(nakagami(m, spec_mean), LinkKind.DIRECT), L)


def _ratio(scale=1.0, L=1, m=1.0):
    return MudDistribution(
        SnrDistribution(nakagami(m, scale), LinkKind.RATIO), L)


def test_num_users_validation():
    with pytest.raises(ValueError):
        _direct(L=0)


def test_single_user_collapses_to_base():
    base = SnrDistribution(rayleigh(1.0), LinkKind.DIRECT)
    d = MudDistribution(base, 1)
    for x in (0.1, 1.0, 5.0):
        assert mud_pdf(d, x) == base.pdf(x)
        assert mud_cdf(d, x) == base.cdf(x)


def test_two_user_rayleigh_closed_form():
    # 2 e^{-x}(1 - e^{-x}) at x = ln 2 gives 2 * 1/2 * 1/2
    d = _direct(L=2)
    assert abs(mud_pdf(d, math.log(2.0)) - 0.5) < 1e-14


@pytest.mark.parametrize("L", [2, 5, 15])
def test_pdf_integrates_to_one(L):
    for d in (_direct(L=L), _ratio(L=L, m=2.0)):
        val = (integrate(d.pdf, 0.0, 1.0, 0.5e-9, 0.5e-8)[0]
               + integrate_to_inf(d.pdf, 1.0, 0.5e-9, 0.5e-8)[0])
        assert abs(val - 1.0) <= 1e-6


def test_cdf_anchors():
    assert mud_cdf(_direct(L=7), 0.0) == 0.0
    # ratio link, m=1: (x/(1+x))^2 at x=1
    assert abs(mud_cdf(_ratio(L=2), 1.0) - 0.25) < 1e-12


def test_five_user_median_against_bisection():
    # independent bisection on the closed form (1 - e^{-x})^5 = 1/2
    lo, hi = 0.1, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (1.0 - math.exp(-mid)) ** 5 < 0.5:
            lo = mid
        else:
            hi = mid
    median = 0.5 * (lo + hi)
    d = _direct(L=5)
    assert abs(mud_cdf(d, median) - 0.5) < 1e-12
    assert abs(median - 2.0444649242511774) < 1e-9


def test_stochastic_dominance_in_users():
    xs = np.geomspace(0.01, 30.0, 40)
    for maker in (_direct, lambda L: _ratio(L=L, m=2.0)):
        prev = None
        for L in (1, 2, 5, 10, 15):
            cur = mud_cdf(maker(L=L), xs)
            if prev is not None:
                assert np.all(cur <= prev + 1e-15)
            prev = cur


def test_pdf_nonnegative_and_zero_at_origin():
    for L in (2, 5):
        d = _direct(L=L)
        xs = np.linspace(0.0, 20.0, 200)
        vals = mud_pdf(d, xs)
        assert np.all(vals >= 0.0)
        assert vals[0] == 0.0


def test_sampling_identity_case_ks():
    d = _direct(L=1)
    rng = np.random.default_rng(17)
    x = np.sort(mud_sample(d, rng, 10 ** 5))
    ecdf = np.arange(1, x.size + 1) / x.size
    ks = np.max(np.abs(ecdf - d.cdf(x)))
    assert ks < 0.01


def test_sampling_max_of_two_exponentials_mean():
    # E[max] = 1 + 1/2 by the order-statistics identity
    d = _direct(L=2)
    rng = np.random.default_rng(23)
    x = mud_sample(d, rng, 10 ** 6)
    assert abs(np.mean(x) - 1.5) < 0.01


def test_sampling_ecdf_matches_cdf():
    d = _direct(L=5)
    rng = np.random.default_rng(31)
    x = np.sort(mud_sample(d, rng, 10 ** 6))
    ecdf = np.arange(1, x.size + 1) / x.size
    assert np.max(np.abs(ecdf - d.cdf(x))) < 0.005


def test_sampling_ratio_link_matches_cdf():
    d = _ratio(scale=10.0, L=5, m=2.0)
    rng = np.random.default_rng(37)
    x = np.sort(mud_sample(d, rng, 2 * 10 ** 5))
    ecdf = np.arange(1, x.size + 1) / x.size
    assert np.max(np.abs(ecdf - d.cdf(x))) < 0.01
