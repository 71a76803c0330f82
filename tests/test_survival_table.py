"""The tabulated tail integrals G2(τ) = ∫_τ^∞ S/y² and G1(τ) = ∫_τ^∞ S/y.

Each table is checked against adaptive quadrature of the scalar survival
function over τ from 1e-20 to 1e20. The reference integrates
[τ, 1] in s = ln y with `integrate` and [max(τ, 1), ∞) with
`integrate_to_inf`: the x = τ/v⁴ map of `integrate_to_inf` alone loses
best-of-L mass lying beyond about 1e9·τ, which is up to 2e-9 of G2 at
τ = 1e-8, while the table resolves it.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from crlink import numerics
from crlink.exceptions import ConvergenceError
from crlink.fading import FadingSpec, LinkKind, SnrDistribution
from crlink.mud import MudDistribution, _unit_tables
from crlink.numerics import _survival_tables, integrate, integrate_to_inf

TAUS = [10.0 ** k for k in range(-20, 21, 4)] + [0.3, 3.0]
REL = 1e-12


def _unit(link, m, L):
    return MudDistribution(SnrDistribution(FadingSpec(1.0, m), link), L)


def _reference(dist, tau, power):
    fn = lambda y: dist.sf(y) / y ** power           # noqa: E731
    total = integrate_to_inf(fn, max(tau, 1.0), 0.0, 1e-13)[0]
    if tau < 1.0:
        total += integrate(lambda s: dist.sf(np.exp(s)) * np.exp((1 - power) * s),
                           math.log(tau), 0.0, 0.0, 1e-13)[0]
    return total


def _check(dist, taus):
    dist.sf_integral(1.0, 1)                         # builds the table
    (table,) = dist.tables.values()
    for tau in taus:
        for power in (2, 1):
            ref = _reference(dist, tau, power)
            if ref > 1e-300:
                got = table.integral(tau, power)[0]
                assert abs(got - ref) <= REL * ref, (tau, power, got, ref)


@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 4.0, 7.3])
@pytest.mark.parametrize("L", [1, 5, 15, 200, 1000])
def test_table_matches_quadrature(link, m, L):
    _check(_unit(link, m, L), TAUS)


def test_concentrated_bulk_at_60_db():
    # osa 60 dB, L = 50, m = 4: the cutoffs sit near 1e-6 of the mean, so
    # the queries land far below the bulk of the unit-scale law
    _check(_unit(LinkKind.DIRECT, 4.0, 50), [1e-7, 3e-7, 1e-6, 3e-6, 1e-5])


@pytest.mark.parametrize("L", [1, 5, 15, 200])
def test_rayleigh_table_matches_closed_form(L):
    # Rayleigh direct link (Alouini & Goldsmith, IEEE T-VT 1999): at unit
    # mean S(y) = Σ_k (−1)^{k+1} C(L,k) e^{−ky}, so G1(τ) is the sum of
    # C(L,k)·E1(kτ) and G2(τ) that of C(L,k)·(e^{−kτ}/τ − k·E1(kτ)), with the
    # same alternating signs. The terms cancel to about 0.31·L digits.
    dist = _unit(LinkKind.DIRECT, 1.0, L)
    with mp.workdps(30 + math.ceil(0.31 * L)):
        for tau in (1e-6, 1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0):
            t = mp.mpf(tau)
            g1 = g2 = mp.mpf(0)
            for k in range(1, L + 1):
                c = (-1) ** (k + 1) * math.comb(L, k)
                e1 = mp.e1(k * t)
                g1 += c * e1
                g2 += c * (mp.exp(-k * t) / t - k * e1)
            for power, ref in ((1, float(g1)), (2, float(g2))):
                got = dist.sf_integral(tau, power)[0]
                assert abs(got - ref) <= REL * ref, (tau, power, got, ref)


def test_scale_enters_through_the_argument():
    base = SnrDistribution(FadingSpec(1e6, 4.0), LinkKind.DIRECT)
    dist = MudDistribution(base, 50)
    t = 0.7
    for power in (1, 2):
        got = dist.sf_integral(t, power)[0]
        ref = integrate(lambda s: dist.sf(np.exp(s)) * np.exp((1 - power) * s),
                        math.log(t), math.log(1e6), 0.0, 1e-13)[0]
        ref += integrate_to_inf(lambda y: dist.sf(y) / y ** power, 1e6, 0.0,
                                1e-13)[0]
        assert abs(got - ref) <= REL * ref


def test_table_depends_on_its_law_alone():
    # two builds agree bit for bit, whatever was asked of the first
    sf = _unit(LinkKind.RATIO, 1.5, 5).sf
    first = _survival_tables(sf, [lambda q: q])[0]
    answers = [first.integral(t, 2) + first.integral(t, 1)
               for t in (1e-3, 0.5, 7.0, 1e25)]
    second = _survival_tables(sf, [lambda q: q])[0]
    assert [second.integral(t, 2) + second.integral(t, 1)
            for t in (1e-3, 0.5, 7.0, 1e25)] == answers
    assert np.array_equal(first._coef, second._coef)


def test_query_beyond_the_table_and_at_the_origin():
    dist = _unit(LinkKind.RATIO, 0.5, 1)
    dist.sf_integral(1.0, 1)
    (table,) = dist.tables.values()
    tau = 10.0 * math.exp(table.s_hi)
    ref = integrate_to_inf(lambda y: dist.sf(y) / y, tau, 0.0, 1e-13)[0]
    assert abs(table.integral(tau, 1)[0] - ref) <= REL * ref
    assert table.integral(0.0, 2)[0] == table.integral(0.0, 1)[0] == math.inf


@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
def test_query_at_infinity_and_at_nan(link):
    (table,) = _unit_tables(link, 2.0, [5]).values()
    for power in (1, 2):
        assert table.integral(math.inf, power) == (0.0, 0.0)
        with pytest.raises(ValueError, match="nan"):
            table.integral(math.nan, power)


def test_direct_table_past_its_end_is_zero_without_quadrature(monkeypatch):
    # the direct-link law is 0 at s_hi, so is all that lies beyond it
    (table,) = _unit_tables(LinkKind.DIRECT, 2.0, [5]).values()

    def refuse(*args):
        raise AssertionError("quadrature past a table that ends at S = 0")
    monkeypatch.setattr(numerics, "integrate_to_inf", refuse)
    for tau in (math.exp(table.s_hi), 1e30, 1e300):
        assert table.integral(tau, 1) == table.integral(tau, 2) == (0.0, 0.0)


@pytest.mark.parametrize("m", [0.5, 2.0])
def test_ratio_table_far_past_its_end(m):
    # there S = c·y^{−m}(1 + O(1/y)) to double precision, so G1 = S(τ)/m and
    # G2 = S(τ)/(τ·(m + 1)); S/y² underflows long before these do
    dist = _unit(LinkKind.RATIO, m, 5)
    dist.sf_integral(1.0, 1)
    (table,) = dist.tables.values()
    for tau in (1e60, 1e100, 1e150):
        sf = dist.sf(tau)
        for power, ref in ((1, sf / m), (2, sf / tau / (m + 1.0))):
            got = table.integral(tau, power)[0]
            assert abs(got - ref) <= REL * ref, (tau, power)
    g1, err = table.integral(1e300, 1)
    assert math.isfinite(g1) and math.isfinite(err)


def test_distributions_share_a_tables_dict():
    tables = {}
    base = SnrDistribution(FadingSpec(10.0, 2.0), LinkKind.RATIO)
    near = MudDistribution(base, 5, tables)
    far = MudDistribution(SnrDistribution(FadingSpec(1e3, 2.0), LinkKind.RATIO),
                          5, tables)
    near.sf_integral(1.0, 2)
    far.sf_integral(1.0, 2)
    assert len(tables) == 1
    assert near == MudDistribution(base, 5)           # tables take no part


def test_a_law_without_transition_is_refused():
    # S = 1 at every grid point leaves no panel between its 1s and 0s
    with pytest.raises(ValueError,
                       match="^survival function has no transition on the grid$"):
        _survival_tables(np.ones_like, [lambda q: q])


def test_the_panel_budget_stops_the_build(monkeypatch):
    # the direct law at m = 1.5, L = 5 refines 4 panels to 371
    monkeypatch.setattr(numerics, "_TABLE_MAX_PANELS", 50)
    sf = _unit(LinkKind.DIRECT, 1.5, 5).sf
    with pytest.raises(ConvergenceError, match="tolerance in 50 panels"):
        _survival_tables(sf, [lambda q: q])


def test_only_powers_one_and_two_are_answered():
    dist = _unit(LinkKind.DIRECT, 1.5, 5)
    for power in (0, 3):
        with pytest.raises(ValueError,
                           match=f"^power must be 1 or 2, got {power}$"):
            dist.sf_integral(1.0, power)
