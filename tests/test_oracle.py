"""Monte Carlo oracle: determinism, statistical agreement, stderr scaling."""

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import crlink.mud as mud
import crlink.oracle as oracle
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
    with pytest.raises(ValueError, match="seed"):
        McConfig(samples=10, seed=-1)


@pytest.mark.parametrize("key,value", [("samples", 1e5 + 0.5),
                                       ("samples", True), ("seed", 2.5),
                                       ("seed", False), ("samples", "10")])
def test_mc_config_takes_whole_numbers_only(key, value):
    with pytest.raises(ValueError, match=key):
        McConfig(**{"samples": 10, key: value})


def test_mc_config_whole_floats_are_integers():
    cfg = McConfig(samples=1e5, seed=3.0)
    assert cfg == McConfig(samples=10 ** 5, seed=3)
    assert type(cfg.samples) is int and type(cfg.seed) is int


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


def test_batch_size_changes_grouping_only(monkeypatch):
    # a different batch size regroups draws; estimates stay statistically
    # compatible even though the stream is consumed in different shapes
    dist = _direct(mean=10.0, L=2)
    cut = solve_cutoff(dist, TX)
    cfg = McConfig(samples=3 * 10 ** 5, seed=5)
    monkeypatch.setattr(oracle, "_BATCH", 10 ** 5)
    a = mc_capacity(dist, cut, cfg)
    monkeypatch.setattr(oracle, "_BATCH", 7919)
    b = mc_capacity(dist, cut, cfg)
    assert abs(a.value - b.value) < 6.0 * a.stderr


@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
@pytest.mark.parametrize("L", [1, 5])
def test_mc_point_equals_single_estimates(link, L, monkeypatch):
    # one shared stream gives each estimate bit for bit, including a batch
    # that does not divide the sample count
    monkeypatch.setattr(oracle, "_BATCH", 7919)
    dist = MudDistribution(SnrDistribution(nakagami(2.0, 10.0), link), L)
    constraint = TX if link is LinkKind.DIRECT else ConstraintSpec(0.1)
    cut = solve_cutoff(dist, constraint)
    cut_cr = solve_cutoff_cr(dist, constraint, CSET.k)
    pol = solve_dr_policy(dist, constraint, CSET)
    cfg = McConfig(samples=3 * 10 ** 5, seed=31)
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
    # a batch holds at most 4e6 base draws. The ratio link holds one (L,
    # batch) array of 32 MB and must not hold a second one for its
    # denominators; the direct link holds two rows of a batch while the
    # worker reduces the batch before, about 1.3 MB at L = 100. One draw
    # first, so the trace leaves out what the first call imports.
    dist = MudDistribution(SnrDistribution(nakagami(1.0, 10.0), link), 100)
    cut = CutoffSolution(gamma0=0.1, residual=0.0, iterations=0)
    mc_capacity(dist, cut, McConfig(samples=1))
    tracemalloc.start()
    try:
        mc_capacity(dist, cut, McConfig(samples=10 ** 5, seed=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= {LinkKind.DIRECT: 2 * 2 ** 20,
                    LinkKind.RATIO: 1.1 * 32 * 2 ** 20}[link]


def _point(link, L):
    """A solved operating point: its distribution, the capacity and
    continuous-rate cutoffs and the discrete-rate policy."""
    dist = MudDistribution(SnrDistribution(nakagami(2.0, 10.0), link), L)
    constraint = TX if link is LinkKind.DIRECT else ConstraintSpec(0.1)
    return (dist, solve_cutoff(dist, constraint),
            solve_cutoff_cr(dist, constraint, CSET.k),
            solve_dr_policy(dist, constraint, CSET))


def _sequential(dist, cfg, maps, pol):
    """The estimates of each map by a loop that draws a batch, reduces it
    chunk by chunk, then draws the next."""
    batch = min(oracle._BATCH,
                max(1, oracle._MAX_BASE_DRAWS // dist.num_users))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    sums = [[] for _ in maps]
    sqsums = [[] for _ in maps]
    remaining = cfg.samples
    while remaining > 0:
        n = min(batch, remaining)
        x = dist.sample(rng, n)
        for lo in range(0, n, oracle._CHUNK):
            chunk = x[lo:lo + oracle._CHUNK]
            region = _region_index(pol, chunk)
            for per_draw, s, q in zip(maps, sums, sqsums):
                v = per_draw(chunk, region, np.empty(len(chunk)))
                s.append(float(v.sum()))
                q.append(float((v * v).sum()))
        remaining -= n
    return [oracle._estimate(s, q, cfg.samples) for s, q in zip(sums, sqsums)]


@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
@pytest.mark.parametrize("L", [1, 5])
def test_overlapped_reduction_equals_sequential_loop(link, L, monkeypatch):
    # 3e5 draws in batches of 7919 are 38 batches, the last one partial, so
    # every batch but the first is drawn while the one before is reduced
    monkeypatch.setattr(oracle, "_BATCH", 7919)
    dist, cut, cut_cr, pol = _point(link, L)
    cfg = McConfig(samples=3 * 10 ** 5, seed=17)
    est = mc_point(dist, cut, cut_cr, pol, CSET, cfg)
    maps = [_rate_map(cut, 1.0), _rate_map(cut_cr, CSET.k), _bits_map(CSET),
            _power_map(cut, 1.0), _dr_power_map(pol, CSET)]
    want = _sequential(dist, cfg, maps, pol)
    assert list(est) == list(oracle.ESTIMATES)
    for name, w in zip(oracle.ESTIMATES, want):
        got = est[name]
        assert (got.value, got.stderr, got.samples) == \
            (w.value, w.stderr, w.samples), name


class _Raised(Exception):
    pass


def test_sampler_failure_propagates_and_leaves_no_thread(monkeypatch):
    # the third batch's draw raises while the worker reduces the second
    monkeypatch.setattr(oracle, "_BATCH", 7919)
    dist, cut, cut_cr, pol = _point(LinkKind.DIRECT, 5)
    drawn = []

    def failing(d, rng, n):
        drawn.append(n)
        if len(drawn) == 3:
            raise _Raised("draw")
        return sample(d, rng, n)

    sample = mud.mud_sample
    monkeypatch.setattr(mud, "mud_sample", failing)
    before = threading.active_count()
    with pytest.raises(_Raised, match="draw"):
        mc_point(dist, cut, cut_cr, pol, CSET, McConfig(samples=10 ** 5))
    assert len(drawn) == 3
    assert threading.active_count() == before


@pytest.mark.parametrize("fail_at", [3, 13])
def test_map_failure_propagates_and_leaves_no_thread(fail_at, monkeypatch):
    # 1e5 draws are 13 batches of one chunk each; the power map raises in
    # the worker on the third chunk, while the caller draws the next batch,
    # or on the last, which only the final wait reads
    monkeypatch.setattr(oracle, "_BATCH", 7919)
    dist, cut, cut_cr, pol = _point(LinkKind.RATIO, 1)
    calls = []

    def failing_power_map(c, k):
        per_draw = power_map(c, k)

        def counted(x, region, out):
            calls.append(len(x))
            if len(calls) == fail_at:
                raise _Raised("map")
            return per_draw(x, region, out)
        return counted

    power_map = oracle._power_map
    monkeypatch.setattr(oracle, "_power_map", failing_power_map)
    before = threading.active_count()
    with pytest.raises(_Raised, match="map"):
        mc_point(dist, cut, cut_cr, pol, CSET, McConfig(samples=10 ** 5))
    assert len(calls) == fail_at
    assert threading.active_count() == before
