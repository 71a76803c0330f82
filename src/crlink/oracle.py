"""Monte Carlo estimators, independent of the analytic pipeline.

Per draw: sample the best-of-L SNR, apply the solved policy, average. No
quadrature or root finding is shared with the analytic side, so agreement
is a genuine cross-check. Streams come from PCG64 seeded through
SeedSequence; the totals of each chunk of a batch are combined with exact
summation. One stream feeds every per-draw map of an operating point
(mc_point), so the five estimates cost one set of draws. The calling
thread draws the batches; one worker thread reduces each batch, in batch
order, while the caller draws the next, so one batch of best-of-L draws is
in flight and the sums are those of a sequential loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .mud import MudDistribution, _whole_number
from .power import ConstellationSet, CutoffSolution, DrPolicy


# draws per batch, fewer where the batch would exceed _MAX_BASE_DRAWS
_BATCH = 200_000

# base draws per batch: one (L, batch) float64 array stays within 32 MB
_MAX_BASE_DRAWS = 4_000_000

# draws per chunk of a batch: the maps and sums of a chunk work on buffers
# of 128 KiB each, which stay in a core's L2 cache
_CHUNK = 16384


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int = 0

    def __post_init__(self):
        for key, low in (("samples", 1), ("seed", 0)):
            object.__setattr__(self, key,
                               _whole_number(key, getattr(self, key), low))


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float
    samples: int

    def within(self, reference: float) -> bool:
        """True when reference lies within 3 standard errors."""
        return abs(self.value - reference) <= 3.0 * self.stderr


def _estimate(sums, sqsums, n: int) -> McEstimate:
    mean = math.fsum(sums) / n
    if n > 1:
        var = max(0.0, (math.fsum(sqsums) - n * mean * mean) / (n - 1))
        stderr = math.sqrt(var / n)
    else:
        stderr = float("inf")
    return McEstimate(value=mean, stderr=stderr, samples=n)


def _accumulate(dist: MudDistribution, cfg: McConfig, maps,
                pol: Optional[DrPolicy] = None) -> List[McEstimate]:
    """Draw cfg.samples best-of-L SNRs batch by batch and average every
    per-draw map over the same draws. A batch holds at most _MAX_BASE_DRAWS
    base draws, so memory stays bounded at any number of users. Each batch
    is reduced in chunks of at most _CHUNK draws: a map takes (x, region,
    out) for one chunk, where region is the discrete-rate region index of
    pol (computed once per chunk, None without pol), writes its values into
    out and returns it; every map's sum and sum of squares is taken per
    chunk.

    The calling thread draws every batch (dist.sample); one worker thread
    reduces it while the caller draws the next. Before handing over a
    batch the caller waits for the reduction of the one before, so
    reductions run one at a time, in batch order, on the same buffers, and
    one batch of best-of-L draws is in flight: every chunk sum is the one a
    sequential loop takes. An exception on either side propagates, and the
    worker is joined before this returns.

    A map zeroes outage draws by a 0/1 factor rather than np.where, on
    operands kept finite at draws of 0 and +inf, so each value is the one
    the np.where form gives; an outage value may be −0, which no sum
    tells from 0."""
    from concurrent.futures import ThreadPoolExecutor

    batch = min(_BATCH, max(1, _MAX_BASE_DRAWS // dist.num_users))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    out = np.empty(min(batch, _CHUNK))
    square = np.empty_like(out)
    sums = [[] for _ in maps]
    sqsums = [[] for _ in maps]

    def reduce(x):
        for lo in range(0, len(x), _CHUNK):
            chunk = x[lo:lo + _CHUNK]
            size = len(chunk)
            region = None if pol is None else _region_index(pol, chunk)
            for per_draw, s, q in zip(maps, sums, sqsums):
                v = per_draw(chunk, region, out[:size])
                s.append(float(v.sum()))
                q.append(float(np.multiply(v, v, out=square[:size]).sum()))

    reduced = None
    with ThreadPoolExecutor(max_workers=1) as worker:
        for drawn in range(0, cfg.samples, batch):
            x = dist.sample(rng, min(batch, cfg.samples - drawn))
            if reduced is not None:
                reduced.result()
            reduced = worker.submit(reduce, x)
        reduced.result()
    return [_estimate(s, q, cfg.samples) for s, q in zip(sums, sqsums)]


def _region_index(pol: DrPolicy, x: np.ndarray) -> np.ndarray:
    """0 = outage, j >= 1 = j-th active constellation: the number of region
    boundaries at or below each draw, as searchsorted(..., side="right")
    counts it on the increasing boundaries."""
    region = np.zeros(len(x), np.min_scalar_type(len(pol.boundaries)))
    for b in pol.boundaries:
        region += x >= b
    return region


def _rate_map(cut: CutoffSolution, k: float):
    """log₂(x·k/γ₀) above the transmission threshold γ₀/k, else 0."""
    g0 = cut.gamma0
    thr = g0 / k
    above = np.empty(_CHUNK)

    def per_draw(x, region, out):
        np.maximum(x, thr, out=out)
        out *= k
        out /= g0
        np.log2(out, out=out)
        return np.multiply(out, np.greater(x, thr, out=above[:len(x)]), out=out)
    return per_draw


def _bits_map(cset: ConstellationSet):
    """log₂(M_j) in region j (0 in outage)."""
    bits = np.array([0.0] + [math.log2(m) for m in cset.sizes[1:]])
    return lambda x, region, out: np.take(bits, region, out=out)


def _power_map(cut: CutoffSolution, k: float):
    """Normalized transmit power 1/γ₀ − 1/(x·k) of a water-filling policy
    above its transmission threshold γ₀/k, else 0."""
    g0 = cut.gamma0
    thr = g0 / k
    above = np.empty(_CHUNK)

    def per_draw(x, region, out):
        np.maximum(x, thr, out=out)
        out *= k
        np.divide(1.0, out, out=out)
        np.subtract(1.0 / g0, out, out=out)
        return np.multiply(out, np.greater(x, thr, out=above[:len(x)]), out=out)
    return per_draw


def _dr_power_map(pol: DrPolicy, cset: ConstellationSet):
    """Normalized transmit power (M_j − 1)/g* − 1/(x·K) of a discrete-rate
    policy in region j (0 in outage)."""
    kk = cset.k
    coeff = np.array([0.0] + [(m - 1.0) / pol.gamma_star
                              for m in cset.sizes[1:]])
    # every draw outside outage is at or above the first boundary, so the
    # floor changes only outage values, which the mask zeroes
    floor = pol.boundaries[0]
    work = np.empty(_CHUNK)

    def per_draw(x, region, out):
        np.maximum(x, floor, out=out)
        out *= kk
        np.divide(1.0, out, out=out)
        w = work[:len(x)]
        np.subtract(np.take(coeff, region, out=w), out, out=out)
        return np.multiply(out, np.greater(region, 0, out=w), out=out)
    return per_draw


def mc_capacity(dist: MudDistribution, cut: CutoffSolution, cfg: McConfig,
                k: float = 1.0) -> McEstimate:
    """Mean of log₂(x·k/γ₀) over draws above the transmission threshold
    γ₀/k; k=1 estimates capacity, k<1 the continuous-rate efficiency."""
    return _accumulate(dist, cfg, [_rate_map(cut, k)])[0]


ESTIMATES = ("capacity", "se_cr", "se_dr", "power", "power_dr")


def mc_point(dist: MudDistribution, cut: CutoffSolution,
             cut_cr: CutoffSolution, pol: DrPolicy, cset: ConstellationSet,
             cfg: McConfig,
             estimates: Sequence[str] = ESTIMATES) -> Dict[str, McEstimate]:
    """The named estimates, by default all of ESTIMATES: capacity,
    continuous- and discrete-rate efficiency, and the power of the capacity
    and discrete-rate policies, all from one stream of draws. Each equals
    the estimate of its map alone bit for bit, whichever others are asked
    for."""
    maps = dict(zip(ESTIMATES, (
        _rate_map(cut, 1.0), _rate_map(cut_cr, cset.k), _bits_map(cset),
        _power_map(cut, 1.0), _dr_power_map(pol, cset))))
    unknown = set(estimates) - set(maps)
    if unknown:
        raise ValueError(f"unknown estimates {sorted(unknown)}; "
                         f"choose from {ESTIMATES}")
    chosen = [maps[name] for name in estimates]
    return dict(zip(estimates, _accumulate(dist, cfg, chosen, pol)))
