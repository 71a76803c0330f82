"""Cutoff and region-parameter solvers: independent re-evaluation of every
constraint equality via scipy quadrature, plus structural checks."""

import math

import numpy as np
import pytest
import rayleigh
from scipy import integrate as sp_integrate
from scipy import special as sp
from scipy.optimize import brentq

from crlink.fading import LinkKind, SnrDistribution, nakagami
from crlink.mud import MudDistribution, SurvivalQuery
from crlink.power import (_DR, ConstellationSet, ConstraintSpec,
                          power_loss_factor, solve_cutoff, solve_cutoff_cr,
                          solve_dr_policy, _spent)
from crlink.sweep import build_point, solve_point

TX = ConstraintSpec(1.0)


def _direct(mean=1.0, L=1, m=1.0):
    return MudDistribution(SnrDistribution(nakagami(m, mean), LinkKind.DIRECT), L)


def _ratio(scale=1.0, L=1, m=1.0):
    return MudDistribution(SnrDistribution(nakagami(m, scale), LinkKind.RATIO), L)


def _spent_scipy(dist, gamma0, k=1.0):
    """Independent evaluation of the water-filling constraint integral.

    Split where the distribution still has mass: QUADPACK's infinite-range
    transform also skips bulk that sits far above the lower limit.
    """
    lo = gamma0 / k
    mid = max(lo + 1.0, float(dist.base.spec.mean_snr))
    while 1.0 - float(dist.cdf(mid)) > 1e-3:
        mid *= 2.0

    def integrand(x):
        return (1.0 / gamma0 - 1.0 / (x * k)) * float(dist.pdf(x))

    head, _ = sp_integrate.quad(integrand, lo, mid,
                                limit=800, epsabs=1e-12, epsrel=1e-12)
    tail, _ = sp_integrate.quad(integrand, mid, np.inf,
                                limit=400, epsabs=1e-12, epsrel=1e-11)
    return head + tail


def test_power_loss_factor_value():
    assert abs(power_loss_factor(1e-3) - 1.5 / math.log(200.0)) < 1e-15
    for ber in (1e-6, 1e-4, 1e-2, 0.039):
        assert 0.0 < power_loss_factor(ber) < 1.0
    with pytest.raises(ValueError):
        power_loss_factor(0.05)
    with pytest.raises(ValueError):
        power_loss_factor(0.0)


def test_constellation_set_validation():
    ConstellationSet((0, 4, 8, 16, 64), 1e-3)
    with pytest.raises(ValueError):
        ConstellationSet((4, 8), 1e-3)          # missing outage entry
    with pytest.raises(ValueError):
        ConstellationSet((0, 8, 4), 1e-3)       # not increasing
    with pytest.raises(ValueError):
        ConstellationSet((0, 1), 1e-3)          # degenerate constellation
    with pytest.raises(ValueError):
        ConstellationSet((0, 4), 0.2)           # BER out of range
    # fractions and booleans are refused, never truncated by int()
    for sizes in ((0, 4, 8.7, 16), (0, True, 4), (False, 4, 8)):
        with pytest.raises(ValueError, match="whole numbers"):
            ConstellationSet(sizes, 1e-3)
    assert ConstellationSet((0, 4.0, 16), 1e-3).sizes == (0, 4, 16)
    # region 1 spends (M₁(M₁ − 1)·K − 1)/(M₁·g*·K) where it starts
    for sizes, ber in (((0, 4, 16), 1e-9), ((0, 2, 4), 1e-3)):
        m1, k = sizes[1], power_loss_factor(ber)
        assert m1 * (m1 - 1) * k < 1.0
        with pytest.raises(ValueError, match="^ber_target must be at least"):
            ConstellationSet(sizes, ber)
    for sizes, ber in (((0, 4, 16), 3.1e-9), ((0, 8), 1e-9), ((0, 2, 4), 1e-2)):
        ConstellationSet(sizes, ber)


def test_constraint_spec_validation():
    for budget in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ConstraintSpec(budget)


def test_rayleigh_unit_budget_cutoff():
    # closed-form residual (1/g)e^{-g} - E1(g) - 1 solved by plain bisection
    def f(g):
        return (1.0 / g) * math.exp(-g) - sp.exp1(g) - 1.0

    lo, hi = 0.1, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)

    cut = solve_cutoff(_direct(), TX)
    assert 0.39 <= cut.gamma0 <= 0.40
    assert abs(cut.gamma0 - oracle) < 1e-9
    assert abs(cut.residual) <= 1e-8


def test_cutoff_monotone_in_budget():
    prev = None
    for budget in (0.5, 1.0, 2.0, 10.0):
        c = ConstraintSpec(budget)
        g0 = solve_cutoff(_direct(), c).gamma0
        if prev is not None:
            assert g0 < prev
        prev = g0


def test_cutoff_grows_with_users():
    # brute-force fine-grid + bisection solve of both cases with scipy
    def oracle(dist):
        def f(g):
            return _spent_scipy(dist, g) - 1.0
        lo, hi = 0.05, 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    d1, d5 = _direct(L=1), _direct(L=5)
    g1, g5 = solve_cutoff(d1, TX).gamma0, solve_cutoff(d5, TX).gamma0
    assert g5 > g1
    assert abs(g1 - oracle(d1)) < 1e-6
    assert abs(g5 - oracle(d5)) < 1e-6


@pytest.mark.parametrize("dist,budget", [
    (_direct(), 1.0),
    (_direct(mean=10.0, L=5), 1.0),
    (_direct(mean=10.0, L=5, m=2.0), 1.0),
    (_ratio(scale=10.0, L=5, m=2.0), 0.1),
])
def test_constraint_equality_reevaluated_independently(dist, budget):
    c = ConstraintSpec(budget)
    cut = solve_cutoff(dist, c)
    assert abs(_spent_scipy(dist, cut.gamma0) - budget) <= 1e-8
    k = power_loss_factor(1e-3)
    cut_cr = solve_cutoff_cr(dist, c, k)
    assert abs(_spent_scipy(dist, cut_cr.gamma0, k) - budget) <= 1e-8


def test_cutoff_far_scale_concentrated_mass():
    # regression: a high mean SNR with many users concentrates the selection
    # density thousands of units above the cutoff; the semi-infinite
    # quadrature must not skip over it (it once mapped the bulk into an
    # unsampled sliver of the tail substitution)
    dist = _direct(mean=1000.0, L=50, m=4.0)
    cut = solve_cutoff(dist, TX)
    assert abs(_spent_scipy(dist, cut.gamma0) - 1.0) <= 1e-8
    assert abs(cut.residual) <= 1e-8


def test_representation_invariance_rayleigh_vs_m1():
    # shape factor 1 against the Rayleigh closed form, solved by brentq
    dn = _direct(mean=2.0, L=3, m=1.0)
    g_n = solve_cutoff(dn, TX).gamma0
    assert abs(rayleigh.cutoff(2.0, 3, TX.budget_ratio) - g_n) < 1e-9


def test_cr_cutoff_reductions():
    cut = solve_cutoff(_direct(), TX)
    cut_k1 = solve_cutoff_cr(_direct(), TX, 1.0)
    assert cut_k1.gamma0 == cut.gamma0
    with pytest.raises(ValueError):
        solve_cutoff_cr(_direct(), TX, 0.0)
    with pytest.raises(ValueError):
        solve_cutoff_cr(_direct(), TX, 1.5)


def test_dr_policy_single_constellation_structure():
    cset = ConstellationSet((0, 4), 1e-3)
    dist = _direct(mean=10.0)
    pol = solve_dr_policy(dist, TX, cset)
    assert len(pol.boundaries) == 1
    assert len(pol.region_probs) == 1
    assert pol.boundaries[0] == 4.0 * pol.gamma_star
    expected = 1.0 - float(dist.cdf(pol.boundaries[0]))
    assert abs(pol.region_probs[0] - expected) < 1e-12


def test_dr_policy_default_set():
    cset = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
    dist = _direct(mean=10.0, L=5)
    pol = solve_dr_policy(dist, TX, cset)
    assert abs(pol.residual) <= 1e-8

    # independent re-evaluation of the summed region integrals
    k = cset.k
    total = 0.0
    edges = list(pol.boundaries) + [np.inf]
    for mj, lo, hi in zip(cset.sizes[1:], edges, edges[1:]):
        val, _ = sp_integrate.quad(
            lambda x, _c=(mj - 1.0) / pol.gamma_star:
                (_c - 1.0 / (x * k)) * float(dist.pdf(x)),
            lo, hi, limit=400, epsabs=1e-12, epsrel=1e-12)
        total += val
    assert abs(total - 1.0) <= 1e-8

    # probabilities: regions plus outage sum to one
    outage = float(dist.cdf(pol.boundaries[0]))
    assert abs(sum(pol.region_probs) + outage - 1.0) <= 1e-9
    assert all(p >= 0.0 for p in pol.region_probs)


def test_dr_spent_monotone_in_gamma_star():
    # the bracketing basis for the solver: average power strictly decreases
    cset = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
    dist = _direct(mean=10.0)
    grid = np.geomspace(0.05, 20.0, 12)
    spent = _spent(SurvivalQuery([dist]), np.zeros(len(grid), dtype=int),
                   grid, np.full(len(grid), _DR), cset)[0].tolist()
    assert all(b < a for a, b in zip(spent, spent[1:]))


def test_dr_policy_ratio_link():
    cset = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
    dist = _ratio(scale=10.0, L=5, m=2.0)
    c = ConstraintSpec(0.5)
    pol = solve_dr_policy(dist, c, cset)
    assert abs(pol.residual) <= 1e-8
    outage = float(dist.cdf(pol.boundaries[0]))
    assert abs(sum(pol.region_probs) + outage - 1.0) <= 1e-9


def _scipy_survival_solve(scale, L, m, budget, k):
    """Cutoffs from scipy alone: betainc survival, quad, brentq.

    Ratio link, S(x) = 1 − (1 − Q(x))^L; water-filling power
    (1/k)∫_{g/k}^∞ S/x² dx and discrete-rate power in survival form.
    """
    def surv(x):
        q = sp.betainc(m, m, scale / (scale + x))
        return -math.expm1(L * math.log1p(-q)) if q < 1.0 else 1.0

    def tail_int(t):
        # [t, c] directly, then x = c/u on (0, 1]
        c = max(2.0 * t, 8.0 * scale)
        opts = dict(epsabs=0.0, epsrel=1e-12, limit=400)
        head = sp_integrate.quad(lambda x: surv(x) / x ** 2, t, c, **opts)[0]
        tail = sp_integrate.quad(lambda u: surv(c / u), 0.0, 1.0, **opts)[0]
        return head + tail / c

    def root(spent):
        lo, hi = 1.0, 10.0
        while spent(lo) < budget:
            lo /= 4.0
        while spent(hi) > budget:
            hi *= 4.0
        return brentq(lambda g: spent(g) - budget, lo, hi,
                      xtol=1e-300, rtol=1e-15)

    sizes = (4, 8, 16, 64)

    def dr_spent(gs):
        s = [surv(mj * gs) for mj in sizes] + [0.0]
        probs = [s[j] - s[j + 1] for j in range(len(sizes))]
        b1 = sizes[0] * gs
        direct = math.fsum((mj - 1.0) / gs * p for mj, p in zip(sizes, probs))
        return direct - (s[0] / b1 - tail_int(b1)) / k

    return (root(tail_int),
            root(lambda g: tail_int(g / k) / k),
            root(dr_spent))


def test_small_budget_solves_to_budget_relative_residual():
    # Q/P = 1e-3 at a 20 dB ratio-link scale: the residual is held to
    # 1e-10 of the budget, and all three roots match a scipy-only solve
    budget = 1e-3
    dist = _ratio(scale=100.0, L=1, m=1.0)
    c = ConstraintSpec(budget)
    cset = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
    cut = solve_cutoff(dist, c)
    cut_cr = solve_cutoff_cr(dist, c, cset.k)
    pol = solve_dr_policy(dist, c, cset)
    for sol in (cut, cut_cr, pol):
        assert abs(sol.residual) <= 1e-10 * budget
    ref = _scipy_survival_solve(100.0, 1, 1.0, budget, cset.k)
    for got, want in zip((cut.gamma0, cut_cr.gamma0, pol.gamma_star), ref):
        assert abs(got - want) <= 1e-9 * want


FIG4_GRID = [("ss", m, ns, 10.0, float(q)) for q in range(-10, 11, 2)
             for ns in (5, 15) for m in (1.0, 2.0)]
USERS_GRID = [("osa", 1.5, ns, 10.0, None) for ns in range(1, 21)]


@pytest.mark.parametrize("grid", [FIG4_GRID, USERS_GRID],
                         ids=["fig4", "osa_users"])
def test_solves_start_near_their_roots(grid):
    # every solve starts at the table's inverse: water-filling takes at most
    # 3.4 evaluations a solve and the discrete rate at most 5, where a start
    # at the bound (M_max − 1)/budget takes 8 on the user-count grid
    cset = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
    tables = {}
    waterfill = discrete = 0
    for point in grid:
        sol = solve_point(*build_point(*point, tables=tables), cset)
        waterfill += sol.cut.iterations + sol.cut_cr.iterations
        discrete += sol.pol.iterations
    assert waterfill <= 3.4 * 2 * len(grid)
    assert discrete <= 5.0 * len(grid)
