"""Monte Carlo oracle: determinism, statistical agreement, stderr scaling."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from crlink.fading import LinkKind, SnrDistribution, nakagami
from crlink.metrics import capacity, spectral_efficiency_dr
from crlink.mud import MudDistribution
from crlink.oracle import (McConfig, _accumulate, _bits_map, _dr_power_map,
                           _power_map, _rate_map, _region_index, mc_capacity,
                           mc_point)
from crlink.power import (ConstellationSet, ConstraintSpec, CutoffSolution,
                          DrPolicy, power_loss_factor, solve_cutoff,
                          solve_cutoff_cr, solve_dr_policy)

TX = ConstraintSpec(1.0)
CSET = ConstellationSet((0, 4, 8, 16, 64), 1e-3)


def _direct(mean=1.0, L=1, m=1.0):
    return MudDistribution(SnrDistribution(nakagami(m, mean), LinkKind.DIRECT), L)


def _mc(dist, per_draw, cfg, pol=None):
    """The estimate of one per-draw map alone."""
    return _accumulate(dist, cfg, [per_draw], pol)[0]


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(samples=0)
    with pytest.raises(ValueError):
        McConfig(samples=10, batch=0)
    with pytest.raises(ValueError, match="seed"):
        McConfig(samples=10, seed=-1)


def test_seed_determinism():
    dist = _direct(mean=10.0, L=3)
    cut = solve_cutoff(dist, TX)
    cfg = McConfig(samples=10 ** 5, seed=123)
    a = mc_capacity(dist, cut, cfg)
    b = mc_capacity(dist, cut, cfg)
    assert a.value == b.value and a.stderr == b.stderr
    c = mc_capacity(dist, cut, McConfig(samples=10 ** 5, seed=124))
    assert c.value != a.value


def test_single_sample_degenerate_average():
    dist = _direct(mean=10.0)
    cut = CutoffSolution(gamma0=0.01, residual=0.0, iterations=0)
    cfg = McConfig(samples=1, seed=9)
    est = mc_capacity(dist, cut, cfg)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(9)))
    draw = float(dist.sample(rng, 1)[0])
    assert est.value == math.log2(draw / 0.01)
    assert est.stderr == float("inf")


def test_mc_capacity_three_sigma():
    dist = _direct(mean=10.0, L=5)
    cut = solve_cutoff(dist, TX)
    est = mc_capacity(dist, cut, McConfig(samples=10 ** 6, seed=42))
    analytic = capacity(dist, cut).value
    assert est.within(analytic)
    assert est.stderr < 0.01


def test_dr_bits_estimate_agrees_and_matches_region_frequencies():
    dist = _direct(mean=10.0, L=5)
    pol = solve_dr_policy(dist, TX, CSET)
    cfg = McConfig(samples=10 ** 6, seed=77)
    est = _mc(dist, _bits_map(CSET), cfg, pol)
    analytic = spectral_efficiency_dr(dist, pol, CSET).value
    assert est.within(analytic)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(77)))
    x = dist.sample(rng, 10 ** 6)
    idx = np.searchsorted(np.asarray(pol.boundaries), x, side="right")
    for j, prob in enumerate(pol.region_probs, start=1):
        freq = float(np.mean(idx == j))
        assert abs(freq - prob) < 0.005


def test_dr_bits_estimate_is_zero_in_all_outage():
    dist = _direct()
    boundaries = tuple(m * 1e12 for m in CSET.sizes[1:])
    pol = DrPolicy(gamma_star=1e12, boundaries=boundaries,
                   region_probs=(0.0,) * len(boundaries),
                   residual=0.0, iterations=0)
    est = _mc(dist, _bits_map(CSET), McConfig(samples=10 ** 5, seed=3), pol)
    assert est.value == 0.0


def test_power_estimate_meets_budget_capacity_policy():
    dist = _direct(mean=10.0, L=5)
    cut = solve_cutoff(dist, TX)
    est = _mc(dist, _power_map(cut, 1.0), McConfig(samples=10 ** 6, seed=11))
    assert est.within(1.0)


def test_power_estimate_meets_budget_cr_policy():
    k = power_loss_factor(1e-3)
    dist = _direct(mean=10.0, L=5)
    cut = solve_cutoff_cr(dist, TX, k)
    est = _mc(dist, _power_map(cut, k), McConfig(samples=10 ** 6, seed=12))
    assert est.within(1.0)


def test_power_estimate_meets_budget_dr_policy():
    dist = _direct(mean=10.0, L=5)
    pol = solve_dr_policy(dist, TX, CSET)
    est = _mc(dist, _dr_power_map(pol, CSET),
              McConfig(samples=10 ** 6, seed=13), pol)
    assert est.within(1.0)


def test_zero_power_below_cutoff():
    # a cutoff far above the support makes every draw contribute nothing
    dist = _direct()
    cut = CutoffSolution(gamma0=1e9, residual=0.0, iterations=0)
    est = _mc(dist, _power_map(cut, 1.0), McConfig(samples=10 ** 5, seed=2))
    assert est.value == 0.0


def test_stderr_scales_inverse_sqrt_n():
    dist = _direct(mean=10.0, L=1)
    cut = solve_cutoff(dist, TX)
    small = mc_capacity(dist, cut, McConfig(samples=10 ** 6, seed=21))
    big = mc_capacity(dist, cut, McConfig(samples=10 ** 7, seed=21))
    ratio = big.stderr / small.stderr
    expect = 1.0 / math.sqrt(10.0)
    assert expect / 2.0 < ratio < expect * 2.0


def test_batch_size_changes_grouping_only():
    # a different batch size regroups draws; estimates stay statistically
    # compatible even though the stream is consumed in different shapes
    dist = _direct(mean=10.0, L=2)
    cut = solve_cutoff(dist, TX)
    a = mc_capacity(dist, cut, McConfig(samples=3 * 10 ** 5, seed=5, batch=10 ** 5))
    b = mc_capacity(dist, cut, McConfig(samples=3 * 10 ** 5, seed=5, batch=7919))
    assert abs(a.value - b.value) < 6.0 * a.stderr


@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
@pytest.mark.parametrize("L", [1, 5])
def test_mc_point_equals_single_estimates(link, L):
    # one shared stream gives each estimate bit for bit, including a batch
    # that does not divide the sample count
    dist = MudDistribution(SnrDistribution(nakagami(2.0, 10.0), link), L)
    constraint = TX if link is LinkKind.DIRECT else ConstraintSpec(0.1)
    cut = solve_cutoff(dist, constraint)
    cut_cr = solve_cutoff_cr(dist, constraint, CSET.k)
    pol = solve_dr_policy(dist, constraint, CSET)
    cfg = McConfig(samples=3 * 10 ** 5, seed=31, batch=7919)
    est = mc_point(dist, cut, cut_cr, pol, CSET, cfg)
    single = {
        "capacity": mc_capacity(dist, cut, cfg),
        "se_cr": mc_capacity(dist, cut_cr, cfg, k=CSET.k),
        "se_dr": _mc(dist, _bits_map(CSET), cfg, pol),
        "power": _mc(dist, _power_map(cut, 1.0), cfg),
        "power_dr": _mc(dist, _dr_power_map(pol, CSET), cfg, pol),
    }
    assert list(est) == list(single)
    for name, want in single.items():
        got = est[name]
        assert got.value == want.value and got.stderr == want.stderr, name
        assert got.samples == want.samples == cfg.samples


def _reference_rate(x, cut, k):
    """log₂(x·k/γ₀) above γ₀/k as the rate map first computed it, on a whole
    array with np.where; _reference_power likewise for the power map."""
    thr = cut.gamma0 / k
    return np.where(x > thr, np.log2(np.maximum(x, thr) * k / cut.gamma0), 0.0)


def _reference_power(x, cut, k):
    thr = cut.gamma0 / k
    return np.where(x > thr, 1.0 / cut.gamma0 - 1.0 / (np.maximum(x, thr) * k),
                    0.0)


def _edges(*points):
    """Each point and the floats one ulp either side of it."""
    return [e for b in points
            for e in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))]


def test_maps_at_edge_draws():
    # draws at 0, at each threshold and region edge and one ulp either side
    # of it, and at +inf give the values of the whole-array formulas, with no
    # NaN and no floating-point warning (a draw at 0 must not meet 0·inf)
    dist = _direct(mean=10.0, L=5)
    k = CSET.k
    pol = solve_dr_policy(dist, TX, CSET)
    # solved cutoffs, and two whose threshold γ₀/k maps back to just above
    # and just below 1 under ·k/γ₀: a map's unmasked value at the threshold
    # is then not 0, so a mask that let the threshold through would show
    cutoffs = [(solve_cutoff(dist, TX), 1.0),
               (solve_cutoff_cr(dist, TX, k), k)] + [
        (CutoffSolution(gamma0=g, residual=0.0, iterations=0), k)
        for g in (0.1, 0.3)]
    above, below = (c.gamma0 / kk * kk / c.gamma0 for c, kk in cutoffs[2:])
    assert above > 1.0 > below
    x = np.array([0.0, np.inf] + _edges(
        *pol.boundaries, *[c.gamma0 for c, _ in cutoffs],
        *[c.gamma0 / kk for c, kk in cutoffs]))

    region = np.searchsorted(np.asarray(pol.boundaries), x, side="right")
    bits = np.array([0.0] + [math.log2(m) for m in CSET.sizes[1:]])
    coeff = np.array([0.0] + [(m - 1.0) / pol.gamma_star
                              for m in CSET.sizes[1:]])
    with np.errstate(divide="ignore"):          # 1/(0·K) at the draw of 0
        power_dr = np.where(region > 0, coeff[region] - 1.0 / (x * k), 0.0)
    cases = [(_bits_map(CSET), bits[region]),
             (_dr_power_map(pol, CSET), power_dr)]
    for c, kk in cutoffs:
        cases += [(_rate_map(c, kk), _reference_rate(x, c, kk)),
                  (_power_map(c, kk), _reference_power(x, c, kk))]

    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got_region = _region_index(pol, x)
        got = [per_draw(x, got_region, np.empty_like(x))
               for per_draw, _ in cases]
    assert np.array_equal(got_region, region)
    for i, (values, (_, want)) in enumerate(zip(got, cases)):
        assert not np.isnan(values).any(), i
        assert np.array_equal(values, want), i


@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
def test_oracle_memory_bounded_at_many_users(link):
    # a batch holds at most 4e6 base draws, one (L, batch) array of 32 MB;
    # the ratio link must not hold a second one for its denominators
    dist = MudDistribution(SnrDistribution(nakagami(1.0, 10.0), link), 100)
    cut = CutoffSolution(gamma0=0.1, residual=0.0, iterations=0)
    tracemalloc.start()
    try:
        mc_capacity(dist, cut, McConfig(samples=10 ** 5, seed=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 32 * 2 ** 20
