"""Metric evaluation: closed forms, reductions, orderings, monotonicity."""

import math

import pytest
import rayleigh
from scipy import special as sp

import crlink.cli as cli
from crlink.fading import LinkKind, SnrDistribution, nakagami
from crlink.metrics import (capacity, spectral_efficiency_cr,
                            spectral_efficiency_dr)
from crlink.mud import MudDistribution
from crlink.oracle import McConfig, _accumulate, _bits_map, mc_capacity
from crlink.power import (ConstellationSet, ConstraintSpec, CutoffSolution,
                          DrPolicy, power_loss_factor, solve_cutoff,
                          solve_cutoff_cr, solve_dr_policy)
from crlink.sweep import build_point

TX = ConstraintSpec(1.0)
CSET = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
K = power_loss_factor(1e-3)


def _direct(mean=1.0, L=1, m=1.0):
    return MudDistribution(SnrDistribution(nakagami(m, mean), LinkKind.DIRECT), L)


def _ratio(scale=1.0, L=1, m=1.0):
    return MudDistribution(SnrDistribution(nakagami(m, scale), LinkKind.RATIO), L)


def _all_three(dist, constraint):
    cap = capacity(dist, solve_cutoff(dist, constraint)).value
    se_cr = spectral_efficiency_cr(
        dist, solve_cutoff_cr(dist, constraint, K), K).value
    pol = solve_dr_policy(dist, constraint, CSET)
    se_dr = spectral_efficiency_dr(dist, pol, CSET).value
    return cap, se_cr, se_dr


def test_capacity_closed_form_rayleigh():
    dist = _direct()
    cut = solve_cutoff(dist, TX)
    res = capacity(dist, cut)
    closed = math.log2(math.e) * sp.exp1(cut.gamma0)
    assert abs(res.value - closed) < 1e-8
    assert res.quadrature_error_estimate <= 1e-6 * max(1.0, res.value)


def test_capacity_degenerate_cutoff():
    # cutoff far beyond the effective support: nothing to integrate
    dist = _direct()
    res = capacity(dist, CutoffSolution(gamma0=1e6, residual=0.0, iterations=0))
    assert res.value < 1e-12


def test_capacity_grows_with_users():
    c1 = capacity(_direct(), solve_cutoff(_direct(), TX)).value
    d5 = _direct(L=5)
    c5 = capacity(d5, solve_cutoff(d5, TX)).value
    assert c5 > c1


def test_cr_equals_capacity_at_unit_k():
    dist = _direct(mean=4.0, L=3)
    cut = solve_cutoff(dist, TX)
    cut_k1 = solve_cutoff_cr(dist, TX, 1.0)
    assert cut_k1.gamma0 == cut.gamma0
    cap = capacity(dist, cut).value
    se = spectral_efficiency_cr(dist, cut_k1, 1.0).value
    assert abs(se - cap) <= 1e-10


def test_cr_below_capacity_with_penalty():
    dist = _direct()
    cap = capacity(dist, solve_cutoff(dist, TX)).value
    se = spectral_efficiency_cr(dist, solve_cutoff_cr(dist, TX, K), K).value
    assert se < cap


def test_stricter_ber_raises_threshold_and_lowers_se():
    dist = _direct(mean=10.0, L=5)
    cap = capacity(dist, solve_cutoff(dist, TX)).value
    prev_thr, prev_se = 0.0, math.inf
    for ber in (1e-2, 1e-3, 1e-6):
        k = power_loss_factor(ber)
        cut = solve_cutoff_cr(dist, TX, k)
        thr = cut.gamma0 / k
        se = spectral_efficiency_cr(dist, cut, k).value
        assert thr > prev_thr
        assert se < prev_se
        assert se <= cap
        prev_thr, prev_se = thr, se


def test_cr_gap_bounded_by_penalty_bits():
    # multiplicative penalty: the gap in bits never exceeds log2(1/K); it
    # approaches that bound from below as the budget grows
    dist = _direct()
    bound = math.log2(1.0 / K)
    gaps = []
    for budget in (1.0, 10.0, 100.0):
        c = ConstraintSpec(budget)
        cap = capacity(dist, solve_cutoff(dist, c)).value
        se = spectral_efficiency_cr(dist, solve_cutoff_cr(dist, c, K), K).value
        gaps.append(cap - se)
        assert 0.0 < cap - se <= bound + 1e-9
    assert gaps[-1] > gaps[0]          # tends toward the bound


def test_dr_bounded_by_largest_constellation():
    dist = _direct(mean=1000.0, L=15)
    pol = solve_dr_policy(dist, TX, CSET)
    se = spectral_efficiency_dr(dist, pol, CSET).value
    assert se <= math.log2(64) + 1e-12


def test_dr_zero_when_all_outage():
    dist = _direct()
    boundaries = tuple(m * 1e9 for m in CSET.sizes[1:])
    cdf_vals = [float(dist.cdf(b)) for b in boundaries]
    probs = [b - a for a, b in zip(cdf_vals, cdf_vals[1:])] + [1.0 - cdf_vals[-1]]
    pol = DrPolicy(gamma_star=1e9, boundaries=boundaries,
                   region_probs=tuple(probs), residual=0.0, iterations=0)
    assert spectral_efficiency_dr(dist, pol, CSET).value < 1e-9


@pytest.mark.parametrize("dist,constraint", [
    (_direct(mean=10.0, L=1), TX),
    (_direct(mean=10.0, L=5, m=2.0), TX),
    (_ratio(scale=10.0, L=5), ConstraintSpec(0.1)),
    (_ratio(scale=10.0, L=15, m=2.0), ConstraintSpec(1.0)),
])
def test_metric_ordering(dist, constraint):
    cap, se_cr, se_dr = _all_three(dist, constraint)
    assert cap >= se_cr >= se_dr >= 0.0


@pytest.mark.parametrize("maker,constraint", [
    (_direct, TX),
    (lambda L: _ratio(scale=10.0, L=L, m=2.0), ConstraintSpec(0.5)),
])
def test_monotone_in_users(maker, constraint):
    prev = None
    for L in (1, 2, 5, 15):
        dist = maker(L=L) if maker is _direct else maker(L)
        vals = _all_three(dist, constraint)
        if prev is not None:
            assert all(v >= p for v, p in zip(vals, prev))
        prev = vals


def test_monotone_in_budget():
    dist = _ratio(scale=10.0, L=5)
    prev = None
    for budget in (0.05, 0.2, 1.0, 5.0):
        c = ConstraintSpec(budget)
        vals = _all_three(dist, c)
        if prev is not None:
            assert all(v >= p for v, p in zip(vals, prev))
        prev = vals


def test_nakagami_m1_equals_rayleigh_metrics():
    # against the Rayleigh closed forms, which share no code with crlink
    dn = _direct(mean=5.0, L=5, m=1.0)
    closed = rayleigh.metrics(5.0, 5, TX.budget_ratio, CSET.target_ber,
                              CSET.sizes)
    for a, b in zip(_all_three(dn, TX), closed):
        assert abs(a - b) <= 1e-8


def test_validate_against_oracle_capacity():
    dist = _direct(mean=10.0, L=2)
    cut = solve_cutoff(dist, TX)
    analytic = capacity(dist, cut).value
    est = mc_capacity(dist, cut, McConfig(samples=10 ** 6, seed=5))
    assert abs(est.value - analytic) / analytic < 0.01


def test_validate_against_oracle_se_dr():
    dist = _direct(mean=10.0, L=5)
    pol = solve_dr_policy(dist, TX, CSET)
    analytic = spectral_efficiency_dr(dist, pol, CSET).value
    est = _accumulate(dist, McConfig(samples=10 ** 6, seed=6),
                      [_bits_map(CSET)], pol)[0]
    assert abs(est.value - analytic) / analytic < 0.01


@pytest.mark.parametrize("point", cli._VALIDATE_POINTS)
def test_quadrature_error_estimate_is_small_and_positive(point):
    # the error estimate of log₂e·G₁ read off the table, at the points that
    # crlink validate checks
    dist, constraint = build_point(*point)
    cap = capacity(dist, solve_cutoff(dist, constraint))
    se_cr = spectral_efficiency_cr(
        dist, solve_cutoff_cr(dist, constraint, K), K)
    for got in (cap, se_cr):
        assert 0.0 < got.quadrature_error_estimate <= 1e-12 * got.value
