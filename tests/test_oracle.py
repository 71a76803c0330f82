"""Monte Carlo oracle: determinism, statistical agreement, stderr scaling."""

import math

import numpy as np
import pytest

from crlink.fading import LinkKind, SnrDistribution, nakagami
from crlink.metrics import capacity, spectral_efficiency_dr
from crlink.mud import MudDistribution
from crlink.oracle import (McConfig, _accumulate, _bits_map, _dr_power_map,
                           _power_map, mc_capacity, mc_point)
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


def test_mc_se_dr_agreement_and_region_frequencies():
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


def test_mc_se_dr_all_outage_is_zero():
    dist = _direct()
    boundaries = tuple(m * 1e12 for m in CSET.sizes[1:])
    pol = DrPolicy(gamma_star=1e12, boundaries=boundaries,
                   region_probs=(0.0,) * len(boundaries),
                   residual=0.0, iterations=0)
    est = _mc(dist, _bits_map(CSET), McConfig(samples=10 ** 5, seed=3), pol)
    assert est.value == 0.0


def test_mc_power_check_capacity_policy():
    dist = _direct(mean=10.0, L=5)
    cut = solve_cutoff(dist, TX)
    est = _mc(dist, _power_map(cut, 1.0), McConfig(samples=10 ** 6, seed=11))
    assert est.within(1.0)


def test_mc_power_check_cr_policy():
    k = power_loss_factor(1e-3)
    dist = _direct(mean=10.0, L=5)
    cut = solve_cutoff_cr(dist, TX, k)
    est = _mc(dist, _power_map(cut, k), McConfig(samples=10 ** 6, seed=12))
    assert est.within(1.0)


def test_mc_power_check_dr_policy():
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
