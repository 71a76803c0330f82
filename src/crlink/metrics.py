"""Average capacity and adaptive-modulation spectral efficiency.

All values are per unit bandwidth (bit/s/Hz); the bandwidth factor is a
multiplicative constant and is dropped throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mud import MudDistribution, SurvivalQuery
from .power import ConstellationSet, CutoffSolution, DrPolicy


@dataclass(frozen=True)
class MetricResult:
    value: float
    quadrature_error_estimate: float


_LOG2E = 1.0 / math.log(2.0)


def capacity(dist: MudDistribution, cut: CutoffSolution) -> MetricResult:
    """Ergodic capacity of the water-filled link:
    ∫_{γ₀}^∞ log₂(x/γ₀) f_max(x) dx."""
    return spectral_efficiency_cr(dist, cut, 1.0)


def spectral_efficiency_cr(dist: MudDistribution, cut: CutoffSolution,
                           k: float) -> MetricResult:
    """Continuous-rate spectral efficiency with the BER power penalty K:
    ∫_t^∞ log₂(x/t) f_max(x) dx with t = γ₀/K, which by parts is
    log₂e·∫_t^∞ S(x)/x dx, read from the table of dist. K=1 is
    capacity."""
    query = SurvivalQuery([dist])
    if query.errors[0]:
        raise query.errors[0]
    _, _, val, err = query(np.zeros(1, dtype=int),
                           np.array([cut.gamma0 / k]), 1)
    return MetricResult(_LOG2E * float(val[0]), _LOG2E * float(err[0]))


def spectral_efficiency_dr(dist: MudDistribution, pol: DrPolicy,
                           cset: ConstellationSet) -> MetricResult:
    """Discrete-rate spectral efficiency: Σ_j log₂(M_j)·P(region j).
    Closed form in the CDF, no quadrature."""
    bits = [math.log2(m) for m in cset.sizes[1:]]
    val = math.fsum(b * p for b, p in zip(bits, pol.region_probs))
    return MetricResult(val, 0.0)
