"""Water-filling cutoffs and discrete-rate region optimization.

Every solver enforces its average-power constraint with equality:

* transmit-power mode, the budget ratio is 1;
* interference-power mode, the budget ratio is the interference budget over
  the transmit power, in linear scale (this normalization makes the
  interference sweep reduce to the transmit-power case at ratio 1).

The discrete-rate policy uses one region parameter g*: region j covers
[M_j·g*, M_{j+1}·g*) and spends (M_j − 1)/g* − 1/(x·K) per unit average
power, the same g* appearing in the rate mapping and the power law.

Integration by parts puts every constraint on the survival function
S(x) = 1 − F(x)^L of the selected SNR, so no density enters a quadrature
and the derivative for the Newton step is closed-form, with S, f_max and
∫S/x² read from the survival table (MudDistribution.sf_point). Each solve
starts where the table's inverse puts the water-filling root
(MudDistribution.sf_integral_inverse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .mud import MudDistribution, _whole_numbers
from .numerics import solve_decreasing

# The discrete-rate solve starts at this multiple of the start of
# solve_cutoff_cr: of 2, 4 and 6, 4 takes the fewest evaluations over the
# four shipped figures and a user-count sweep together.
_DR_START = 4.0


@dataclass(frozen=True)
class ConstraintSpec:
    """Average power budget: 1 for transmit power, Q/P for interference."""

    budget_ratio: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.budget_ratio) or self.budget_ratio <= 0.0:
            raise ValueError(f"budget_ratio must be finite and > 0, "
                             f"got {self.budget_ratio}")


@dataclass(frozen=True)
class CutoffSolution:
    """Solved water-filling cutoff with the constraint residual achieved."""

    gamma0: float
    residual: float
    iterations: int


def power_loss_factor(target_ber: float) -> float:
    """Effective SNR penalty K = −1.5/ln(5·BER) that pins M-QAM at the
    target bit error rate; lies in (0,1) for targets below 4e-2."""
    if not 0.0 < target_ber < 0.04:
        raise ValueError(f"ber_target must be in (0, 0.04), got {target_ber}")
    return -1.5 / math.log(5.0 * target_ber)


@dataclass(frozen=True)
class ConstellationSet:
    """Discrete M-QAM sizes, leading 0 meaning no transmission. Its errors
    name the sweep config keys, constellations and ber_target."""

    sizes: Tuple[int, ...]
    target_ber: float

    def __post_init__(self):
        sizes = _whole_numbers("constellations", self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) < 2 or sizes[0] != 0:
            raise ValueError(f"constellations must start with 0 and offer at "
                             f"least one constellation, got {sizes}")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"constellations must be strictly increasing, got {sizes}")
        if sizes[1] < 2:
            raise ValueError(f"constellations cannot offer size 1, got {sizes}")
        self.k  # validates target_ber

    @property
    def k(self) -> float:
        return power_loss_factor(self.target_ber)


@dataclass(frozen=True)
class DrPolicy:
    """Optimized discrete-rate policy: region parameter, edges M_j·g*,
    per-region selection probabilities (outage is the complement)."""

    gamma_star: float
    boundaries: Tuple[float, ...]
    region_probs: Tuple[float, ...]
    residual: float
    iterations: int


def _waterfill_spent(dist: MudDistribution, gamma0: float,
                     k: float) -> Tuple[float, float]:
    """Average power ∫_t^∞ (1/γ₀ − 1/(x·k)) f_max(x) dx with t = γ₀/k,
    which is (1/k)∫_t^∞ S(x)/x² dx, and its derivative −S(t)/γ₀²."""
    sf, _, g2 = dist.sf_point(gamma0 / k, g2=True)
    return g2 / k, -sf / gamma0 ** 2


def solve_cutoff(dist: MudDistribution, c: ConstraintSpec) -> CutoffSolution:
    """Cutoff γ₀ for the capacity-optimal policy (1/γ₀ − 1/x above γ₀)."""
    return solve_cutoff_cr(dist, c, 1.0)


def solve_cutoff_cr(dist: MudDistribution, c: ConstraintSpec,
                    k: float) -> CutoffSolution:
    """Cutoff γ₀ for continuous-rate adaptive modulation with penalty K:
    transmission above γ₀/K, power 1/γ₀ − 1/(x·K). K=1 is solve_cutoff."""
    if not 0.0 < k <= 1.0:
        raise ValueError(f"power-loss factor must be in (0, 1], got {k}")
    # the root solves ∫_{γ₀/k}^∞ S/x² = k·budget, which the table inverts
    # to a start; the spent power never exceeds 1/γ₀, so the root lies at
    # or below 1/budget, which caps the start
    target = c.budget_ratio
    g0, residual, iters = solve_decreasing(
        lambda g: _waterfill_spent(dist, g, k), target,
        x0=min(k * dist.sf_integral_inverse(k * target), 1.0 / target))
    return CutoffSolution(gamma0=g0, residual=residual, iterations=iters)


def _dr_spent(dist: MudDistribution, gamma_star: float,
              sizes: Sequence[int], k: float) -> Tuple[float, float]:
    """Average power of the discrete-rate policy at a given region
    parameter, and its derivative in g*.

    With edges b_j = M_j·g*, c_j = (M_j − 1)/g* and region probabilities
    P_j = S(b_j) − S(b_{j+1}), the power is
    Σ_j c_j·P_j − (1/k)∫_{b₁}^∞ f_max(x)/x dx, and by parts
    ∫_{b₁}^∞ f_max/x = S(b₁)/b₁ − ∫_{b₁}^∞ S/x². The derivative needs
    f_max only at the edges: dP_j/dg* = M_{j+1}·f(b_{j+1}) − M_j·f(b_j),
    and the last integral contributes f(b₁)/(k·g*).
    """
    m = sizes[1:]
    edges = [dist.sf_point(mj * gamma_star, j == 0) for j, mj in enumerate(m)]
    sf = [s for s, _, _ in edges] + [0.0]
    mf = [mj * f for mj, (_, f, _) in zip(m, edges)] + [0.0]
    spent = slope = 0.0
    for j, mj in enumerate(m):
        c = (mj - 1.0) / gamma_star
        prob = sf[j] - sf[j + 1]
        spent += c * prob
        slope += c * (mf[j + 1] - mf[j] - prob / gamma_star)
    tail = sf[0] / (m[0] * gamma_star) - edges[0][2]
    return spent - tail / k, slope + mf[0] / (m[0] * k * gamma_star)


def solve_dr_policy(dist: MudDistribution, c: ConstraintSpec,
                    cset: ConstellationSet) -> DrPolicy:
    """Find the region parameter g* spending exactly the power budget, then
    tabulate region edges and selection probabilities."""
    # the spent power never exceeds (M_max − 1)/g*, so the root lies at or
    # below (M_max − 1)/budget, which caps the start
    k = cset.k
    target = c.budget_ratio
    x0 = min(_DR_START * (k * dist.sf_integral_inverse(k * target)),
             (cset.sizes[-1] - 1.0) / target)
    gs, residual, iters = solve_decreasing(
        lambda g: _dr_spent(dist, g, cset.sizes, k), target, x0=x0)
    boundaries = tuple(mj * gs for mj in cset.sizes[1:])
    probs = -np.diff(dist.sf_pdf(boundaries)[0], append=0.0)
    return DrPolicy(gamma_star=gs, boundaries=boundaries,
                    region_probs=tuple(float(p) for p in probs),
                    residual=residual, iterations=iters)
