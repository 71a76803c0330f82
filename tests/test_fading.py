"""Fading laws: closed-form anchors, normalization, the hypergeometric CDF
against quadrature, and sampling against the analytic shapes."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special as sp

from crlink.fading import (FadingSpec, LinkKind, SnrDistribution, cdf_direct,
                           cdf_ratio, nakagami, pdf_direct, pdf_ratio,
                           sf_direct)
from crlink.numerics import integrate, integrate_to_inf

P_2_2 = 0.5939941502901619
F_RATIO_M2_HALF = 0.25925925925925924   # quadrature of 6x/(1+x)^4 over [0, 1/2]


def test_spec_validation():
    with pytest.raises(ValueError):
        FadingSpec(1.0, 0.3)
    with pytest.raises(ValueError):
        FadingSpec(0.0, 1.0)


@pytest.mark.parametrize("mean_snr,m", [(math.nan, 1.0), (math.inf, 1.0),
                                         (1.0, math.nan), (1.0, math.inf)])
def test_spec_rejects_non_finite(mean_snr, m):
    with pytest.raises(ValueError, match="finite"):
        FadingSpec(mean_snr, m)


def test_pdf_direct_rayleigh_origin():
    assert pdf_direct(nakagami(1.0, 1.0), 0.0) == 1.0
    assert abs(pdf_direct(nakagami(1.0, 2.0), 0.0) - 0.5) < 1e-15


def test_nakagami_m1_is_rayleigh():
    # Rayleigh fading's exponential SNR law, e^{−x} at unit mean
    for x in (0.1, 1.0, 5.0):
        r = math.exp(-x)
        n = pdf_direct(nakagami(1.0, 1.0), x)
        assert abs(r - n) <= 1e-12 * r
        assert abs(-math.expm1(-x)
                   - cdf_direct(nakagami(1.0, 1.0), x)) <= 1e-12


def test_nakagami_m2_mode():
    # density 4x e^{-2x} peaks where its derivative vanishes, at x = 1/2
    spec = nakagami(2.0, 1.0)
    h = 1e-6
    deriv = (pdf_direct(spec, 0.5 + h) - pdf_direct(spec, 0.5 - h)) / (2 * h)
    assert abs(deriv) < 1e-6
    assert pdf_direct(spec, 0.5) > pdf_direct(spec, 0.45)
    assert pdf_direct(spec, 0.5) > pdf_direct(spec, 0.55)


def test_cdf_direct_anchors():
    assert abs(cdf_direct(nakagami(1.0, 1.0), math.log(2.0)) - 0.5) < 1e-14
    assert cdf_direct(nakagami(1.0, 1.0), 0.0) == 0.0
    assert cdf_direct(nakagami(2.0, 1.0), 0.0) == 0.0
    assert abs(cdf_direct(nakagami(2.0, 1.0), 1.0) - P_2_2) < 1e-10


@pytest.mark.parametrize("m", [1.0, 2.0, 5.0, 1.5])
def test_cdf_direct_is_positive_zero_at_origin(m):
    # P(m, 0) is the series sum times a zero prefactor, +0.0 at every m
    spec = nakagami(m, 1.0)
    assert math.copysign(1.0, cdf_direct(spec, 0.0)) == 1.0
    assert math.copysign(1.0, cdf_direct(spec, np.zeros(3))[0]) == 1.0


@pytest.mark.parametrize("m", [1.0, 1.5])
@pytest.mark.parametrize("n", [1, 64])
def test_direct_laws_at_infinity(m, n):
    # x/γ̄ overflows to inf at a mean near 1e-300; the laws take their
    # limits there on the scalar (n = 1) and the array (n = 64) loops alike
    spec = FadingSpec(1.0, m)
    x = np.full(n, np.inf)
    assert sf_direct(spec, x).tolist() == [0.0] * n
    assert cdf_direct(spec, x).tolist() == [1.0] * n


@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 7.3])
@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
def test_pdf_at_infinity_is_zero(link, m):
    # both densities fall to 0 as x grows, at every shape; the formula's
    # log terms would give inf − inf or 0·inf there
    d = SnrDistribution(FadingSpec(2.0, m), link)
    assert d.pdf(math.inf) == 0.0
    x = np.array([math.inf, 1.0, math.inf])
    got = d.pdf(x)
    assert got[0] == got[2] == 0.0
    assert got[1] == d.pdf(1.0) > 0.0


def test_cdf_direct_noninteger_against_scipy():
    for m in (0.5, 1.7, 3.3):
        spec = nakagami(m, 2.5)
        for x in np.geomspace(0.01, 40.0, 25):
            ref = sp.gammainc(m, m * x / 2.5)
            assert abs(cdf_direct(spec, x) - ref) < 1e-11


def test_cdf_direct_integer_m_matches_scipy():
    for m in (2.0, 4.0, 7.0):
        spec = nakagami(m, 1.5)
        xs = np.geomspace(0.01, 60.0, 30)
        vals = cdf_direct(spec, xs)
        refs = sp.gammainc(m, m * xs / 1.5)
        assert np.max(np.abs(vals - refs)) < 1e-12


def test_pdf_ratio_anchors():
    assert abs(pdf_ratio(nakagami(1.0, 1.0), 1.0) - 0.25) < 1e-14
    assert abs(pdf_ratio(nakagami(2.0, 1.0), 1.0) - 0.375) < 1e-14
    assert pdf_ratio(nakagami(1.0, 1.0), 0.0) == 1.0


def test_pdf_ratio_scaling():
    spec = nakagami(2.0, 10.0)
    unit = nakagami(2.0, 1.0)
    for x in (0.5, 3.0, 20.0):
        assert abs(pdf_ratio(spec, x) - pdf_ratio(unit, x / 10.0) / 10.0) < 1e-15
        assert abs(cdf_ratio(spec, x) - cdf_ratio(unit, x / 10.0)) < 1e-14


def test_pdf_ratio_monte_carlo_histogram():
    # gain ratio of two Gamma(2, rate 2) draws against the closed density
    rng = np.random.default_rng(2024)
    n = 10 ** 7
    draws = rng.gamma(2.0, 0.5, n) / rng.gamma(2.0, 0.5, n)
    edges = [0.2, 0.6, 1.0, 1.6]
    for lo, hi in zip(edges, edges[1:]):
        prob, _ = sp_integrate.quad(lambda x: 6 * x / (1 + x) ** 4, lo, hi)
        freq = np.mean((draws >= lo) & (draws < hi))
        assert abs(freq - prob) <= 0.01 * prob


def test_cdf_ratio_anchors():
    assert abs(cdf_ratio(nakagami(1.0, 1.0), 1.0) - 0.5) < 1e-12
    for m in (0.5, 1.0, 2.0, 4.0):
        assert cdf_ratio(nakagami(m, 1.0), 0.0) == 0.0


def test_cdf_ratio_matches_pdf_quadrature():
    spec = nakagami(2.0, 1.0)
    val, _ = sp_integrate.quad(lambda x: pdf_ratio(spec, x), 0.0, 1.0)
    assert abs(cdf_ratio(spec, 1.0) - val) < 1e-8
    assert abs(cdf_ratio(spec, 0.5) - F_RATIO_M2_HALF) < 1e-10


def test_cdf_ratio_m1_closed_form():
    spec = nakagami(1.0, 1.0)
    for x in np.linspace(0.0, 100.0, 101):
        assert abs(cdf_ratio(spec, x) - x / (1.0 + x)) <= 1e-10


def test_cdf_ratio_unit_point_symmetry():
    for m in (0.5, 1.0, 2.0, 4.0, 7.5):
        assert abs(cdf_ratio(nakagami(m, 1.0), 1.0) - 0.5) < 1e-9


def test_cdf_ratio_reflection_consistency():
    for m in (0.5, 2.0, 3.7):
        spec = nakagami(m, 1.0)
        for x in (2.0, 7.0, 40.0):
            assert abs(cdf_ratio(spec, x) + cdf_ratio(spec, 1.0 / x) - 1.0) < 1e-12


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
def test_pdf_normalization(m, link):
    dist = SnrDistribution(nakagami(m, 1.0), link)
    val = (integrate(dist.pdf, 0.0, 1.0, 0.5e-9, 0.5e-8)[0]
           + integrate_to_inf(dist.pdf, 1.0, 0.5e-9, 0.5e-8)[0])
    assert abs(val - 1.0) <= 1e-8


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
def test_cdf_limits(m, link):
    # the ratio law has a power tail, so the upper probe sits far out
    dist = SnrDistribution(nakagami(m, 1.0), link)
    assert dist.cdf(0.0) == 0.0
    assert dist.cdf(1e16) >= 1.0 - 1e-8


@pytest.mark.parametrize("m", [1.0, 2.0])
@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
def test_cdf_derivative_is_pdf(m, link):
    dist = SnrDistribution(nakagami(m, 1.0), link)
    h = 1e-6
    for x in (0.05, 0.3, 1.0, 2.5, 8.0):
        num = (dist.cdf(x + h) - dist.cdf(x - h)) / (2 * h)
        assert abs(num - dist.pdf(x)) < 1e-6


def test_cdf_matches_cumulative_quadrature():
    # cdf' = pdf, checked in integrated form at sampled points
    for link in (LinkKind.DIRECT, LinkKind.RATIO):
        dist = SnrDistribution(nakagami(2.0, 1.0), link)
        for x in (0.3, 1.0, 4.0):
            val, _ = integrate(dist.pdf, 0.0, x, abs_tol=1e-12, rel_tol=1e-11)
            assert abs(val - dist.cdf(x)) < 1e-8


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        pdf_direct(nakagami(1.0, 1.0), -0.5)
    with pytest.raises(ValueError):
        cdf_ratio(nakagami(1.0, 1.0), np.array([0.5, -1.0]))


def test_sampling_means():
    rng = np.random.default_rng(99)
    d = SnrDistribution(nakagami(2.0, 3.0), LinkKind.DIRECT)
    x = d.sample(rng, 10 ** 6)
    assert abs(np.mean(x) - 3.0) < 0.01            # mean snr
    assert abs(np.var(x) - 3.0 ** 2 / 2.0) < 0.05  # gamma variance mean^2/m

    # the scaled gain ratio has median s (exchangeability)
    r = SnrDistribution(nakagami(2.0, 5.0), LinkKind.RATIO)
    y = r.sample(rng, 10 ** 6)
    assert abs(np.median(y) - 5.0) < 0.02


def test_array_and_scalar_shapes():
    d = SnrDistribution(nakagami(2.0, 1.0), LinkKind.RATIO)
    xs = np.array([0.0, 0.5, 1.0, 10.0])
    assert d.pdf(xs).shape == xs.shape
    assert isinstance(d.pdf(1.0), float)
    assert isinstance(d.cdf(1.0), float)


@pytest.mark.parametrize("m", [0.5, 1.5, 2.5, 7.3, 15.0])
def test_sf_ratio_against_mpmath(m):
    # ss configs take m up to 15; the ratio-link survival holds 1e-11
    # against mpmath, unit point included, where the alternating Pfaff
    # series lost 2.3e-11 to cancellation at m = 15, and the per-element
    # stop of the series at 1e-12 of its sum leaves about 1e-12
    from crlink.fading import sf_ratio
    y = np.concatenate([np.geomspace(0.05, 1e3, 301), [0.95, 1.0, 1.05]])
    with mp.workdps(40):
        ref = np.array([float(mp.betainc(m, m, 0, 1 / (1 + mp.mpf(v)),
                                         regularized=True)) for v in y])
    got = sf_ratio(FadingSpec(1.0, m), y)
    assert np.all(np.abs(got - ref) <= 1e-11 * ref)


@pytest.mark.parametrize("m", [0.5, 1.5, 2.5, 7.3, 13.1, 1.0, 2.0, 4.0, 30.0,
                               60.0, 1000.0])
def test_direct_halves_against_mpmath(m):
    # the CDF P(m, m·x) and the survival Q(m, m·x) at unit mean are the two
    # selections from one incomplete-gamma kernel; each holds 1e-11 against
    # mpmath wherever it is above 1e-300, on both sides of the
    # series/continued-fraction switch at m·x = m + 1. At m = 1000 (the osa
    # cap) both are above 1e-300 only for x in about [0.23, 1.95].
    spec = FadingSpec(1.0, m)
    x = np.geomspace(1e-8, 60.0, 401) if m < 100 else np.geomspace(0.2, 3.0, 401)
    with mp.workdps(40):
        y = [mp.mpf(m * v) for v in x.tolist()]
        cdf = np.array([float(mp.gammainc(m, 0, v, regularized=True))
                        for v in y])
        sf = np.array([float(mp.gammainc(m, v, mp.inf, regularized=True))
                       for v in y])
    for got, ref in ((cdf_direct(spec, x), cdf), (sf_direct(spec, x), sf)):
        live = ref > 1e-300
        assert live.sum() > 200
        assert np.all(np.abs(got - ref)[live] <= 1e-11 * ref[live])
