"""Best-of-L order statistics: closed forms, dominance, and sampling."""

import math

import numpy as np
import pytest

from crlink.fading import LinkKind, SnrDistribution, nakagami
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


@pytest.mark.parametrize("users", [2.5, True, "2", None])
def test_num_users_takes_whole_numbers_only(users):
    with pytest.raises(ValueError, match="num_users"):
        _direct(L=users)


def test_whole_float_user_count_is_that_integer():
    d = _direct(L=5.0)
    assert d.num_users == 5 and type(d.num_users) is int
    assert d == _direct(L=5)


def test_single_user_collapses_to_base():
    base = SnrDistribution(nakagami(1.0, 1.0), LinkKind.DIRECT)
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


def _reference_draws(d, rng, n):
    """Per-user draws of mud_sample as first written: (L, n) scaled Gamma
    draws; for the ratio link s·num/den with both gains drawn as whole
    arrays and zero denominators redrawn, in row-major order, until none is
    left."""
    m, s, L = d.base.spec.m, d.base.spec.mean_snr, d.num_users
    if d.base.link is LinkKind.DIRECT:
        return rng.gamma(m, s / m, (L, n))
    num = rng.gamma(m, 1.0, (L, n))
    den = rng.gamma(m, 1.0, (L, n))
    while True:
        bad = den == 0.0
        if not np.any(bad):
            break
        den[bad] = rng.gamma(m, 1.0, int(np.count_nonzero(bad)))
    return num * s / den


class _Underflowing:
    """A generator whose Gamma draws below `floor` come out as 0, as a
    denominator that underflows would, so the redraw loop runs. Every value
    is zeroed by its own value alone, so the stub gives the same values
    however a call splits the stream."""

    def __init__(self, seed, floor):
        self.rng = np.random.default_rng(seed)
        self.floor = floor
        self.zeros = 0

    def _zeroed(self, v):
        low = v < self.floor
        self.zeros += int(np.count_nonzero(low))
        v[low] = 0.0
        return v

    def gamma(self, shape, scale, size):
        return self._zeroed(self.rng.gamma(shape, scale, size))

    def standard_gamma(self, shape, size=None, out=None):
        return self._zeroed(self.rng.standard_gamma(shape, size, out=out))

    def standard_exponential(self, size=None, out=None):
        return self._zeroed(self.rng.standard_exponential(size, out=out))


@pytest.mark.parametrize("link,m,floor", [
    (LinkKind.DIRECT, 0.5, None), (LinkKind.DIRECT, 2.0, None),
    (LinkKind.RATIO, 0.5, None), (LinkKind.RATIO, 2.0, None),
    (LinkKind.RATIO, 1.0, 0.3)])
@pytest.mark.parametrize("L", [1, 5])
def test_sampling_stream_unchanged(link, m, floor, L):
    # mud_sample and the base sample take the same values from the stream
    # as the whole-array formula, bit for bit, and leave it at the same place
    d = MudDistribution(SnrDistribution(nakagami(m, 7.3), link), L)
    n = 999
    if floor is None:
        rngs = [np.random.default_rng(41) for _ in range(4)]
    else:
        rngs = [_Underflowing(41, floor) for _ in range(4)]
    got = mud_sample(d, rngs[0], n)
    want = _reference_draws(d, rngs[1], n).max(axis=0)
    assert np.array_equal(got, want)
    assert np.array_equal(d.base.sample(rngs[2], (L, n)),
                          _reference_draws(d, rngs[3], n))
    if floor is not None:
        # about a quarter of the draws, denominators and redraws among them
        assert all(r.zeros > n // 10 for r in rngs)
        rngs = [r.rng for r in rngs]
    ends = {float(r.random()) for r in rngs}
    assert len(ends) == 1
