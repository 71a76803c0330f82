"""Average capacity and adaptive-modulation spectral efficiency.

All values are per unit bandwidth (bit/s/Hz); the bandwidth factor is a
multiplicative constant and is dropped throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .mud import MudDistribution
from .numerics import integrate_to_inf
from .power import ConstellationSet, CutoffSolution, DrPolicy


@dataclass(frozen=True)
class MetricResult:
    value: float
    quadrature_error_estimate: float
    policy: Union[CutoffSolution, DrPolicy]


_LOG2E = 1.0 / math.log(2.0)


def _rate_integral(dist: MudDistribution, gamma0: float, k: float):
    """∫_t^∞ log₂(x/t) f_max(x) dx with t = γ₀/k; by parts this is
    log₂e·∫_t^∞ S(x)/x dx. Returns (value, error estimate)."""
    val, err = integrate_to_inf(lambda x: dist.sf(x) / x, gamma0 / k,
                                abs_tol=0.0, rel_tol=1e-9)
    return _LOG2E * val, _LOG2E * err


def capacity(dist: MudDistribution, cut: CutoffSolution) -> MetricResult:
    """Ergodic capacity of the water-filled link:
    ∫_{γ₀}^∞ log₂(x/γ₀) f_max(x) dx."""
    val, err = _rate_integral(dist, cut.gamma0, 1.0)
    return MetricResult(val, err, cut)


def spectral_efficiency_cr(dist: MudDistribution, cut: CutoffSolution,
                           k: float) -> MetricResult:
    """Continuous-rate spectral efficiency with the BER power penalty K:
    ∫_{γ₀/K}^∞ log₂(x·K/γ₀) f_max(x) dx. K=1 equals capacity exactly."""
    val, err = _rate_integral(dist, cut.gamma0, k)
    return MetricResult(val, err, cut)


def spectral_efficiency_dr(dist: MudDistribution, pol: DrPolicy,
                           cset: ConstellationSet) -> MetricResult:
    """Discrete-rate spectral efficiency: Σ_j log₂(M_j)·P(region j).
    Closed form in the CDF, no quadrature."""
    bits = [math.log2(m) for m in cset.sizes[1:]]
    val = math.fsum(b * p for b, p in zip(bits, pol.region_probs))
    return MetricResult(val, 0.0, pol)
