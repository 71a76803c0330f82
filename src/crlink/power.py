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
∫S/x² read from the survival tables (SurvivalQuery). Each solve starts
where the table's inverse puts the water-filling root. Any number of
policies, of any laws and budgets, are solved in lockstep (_policies):
one array Newton solve whose every evaluation reads all their tables in
one query; the public solvers are its one-element case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .mud import MudDistribution, SurvivalQuery, _whole_numbers
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
    name the sweep config keys, constellations and ber_target. The target
    must leave the smallest size M₁ a penalty K with M₁(M₁ − 1)·K >= 1,
    so that no region spends negative power."""

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
        # region 1 starts at b₁ = M₁·g*, where the policy spends
        # (M₁(M₁ − 1)·K − 1)/(M₁·g*·K): negative unless M₁(M₁ − 1)·K >= 1
        m1 = sizes[1]
        if m1 * (m1 - 1) * self.k < 1.0:
            raise ValueError(
                f"ber_target must be at least "
                f"{math.exp(-1.5 * m1 * (m1 - 1)) / 5.0:.3g} for "
                f"constellations {sizes}: below it the discrete-rate policy "
                f"spends negative power where constellation {m1} starts, "
                f"got {self.target_ber}")

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


# the penalty k that marks a discrete-rate element of _policies
_DR = 0.0


def _spent(query: SurvivalQuery, which: np.ndarray, x: np.ndarray,
           k: np.ndarray, cset: Optional[ConstellationSet]) -> tuple:
    """The average power that each element's policy spends at x, its
    derivative in x, and S at the region edges of cset (rows of nan for
    water-filling), for law which[i], from one query of the tables. The
    water-filling elements come first.

    Water-filling at penalty k (k = 1: capacity; x = γ₀): the power
    ∫_t^∞ (1/γ₀ − 1/(y·k)) f_max(y) dy with t = γ₀/k, which by parts is
    (1/k)∫_t^∞ S(y)/y² dy, and its derivative −S(t)/γ₀².

    Discrete rate of cset (k = _DR; x = g*): with edges b_j = M_j·g*,
    c_j = (M_j − 1)/g* and region probabilities P_j = S(b_j) − S(b_{j+1}),
    the power is Σ_j c_j·P_j − (1/K)∫_{b₁}^∞ f_max(y)/y dy, and by parts
    ∫_{b₁}^∞ f_max/y = S(b₁)/b₁ − ∫_{b₁}^∞ S/y². The derivative needs
    f_max only at the edges: dP_j/dg* = M_{j+1}·f(b_{j+1}) − M_j·f(b_j),
    and the last integral contributes f(b₁)/(K·g*).
    """
    nw = len(k) - np.count_nonzero(k == _DR)
    m = np.array(cset.sizes[1:] if cset else (), dtype=float)[:, None]
    gs, nr = x[nw:], len(x) - nw
    want = np.zeros(nw + len(m) * nr, dtype=bool)
    want[:nw + nr] = True                       # G2 at the first edge only
    sf, f, g2, _ = query(np.concatenate([which[:nw]] + [which[nw:]] * len(m)),
                         np.concatenate([x[:nw] / k[:nw], (m * gs).ravel()]),
                         2, want)
    val, slope = g2[:nw] / k[:nw], -sf[:nw] / x[:nw] ** 2
    kept = np.full((nw, len(m)), math.nan)
    if nr:
        kr = cset.k
        sf, f, g2 = (v[nw:].reshape(-1, nr) for v in (sf, f, g2))
        # S and M·f_max at the edges and then 0: region j lies between
        # rows j and j + 1
        s1, mf = np.zeros((2, len(m) + 1, nr))
        s1[:-1], mf[:-1] = sf, m * f
        prob = s1[:-1] - s1[1:]
        terms = (m - 1.0) / gs * np.array(
            [prob, mf[1:] - mf[:-1] - prob / gs])
        spent, dspent = terms[:, 0]         # summed edge by edge, in order
        for j in range(1, len(m)):
            spent, dspent = spent + terms[0, j], dspent + terms[1, j]
        tail = sf[0] / (m[0] * gs) - g2[0]
        val = np.concatenate([val, spent - tail / kr])
        slope = np.concatenate([slope, dspent + mf[0] / (m[0] * kr * gs)])
        kept = np.concatenate([kept, sf.T])
    return val, slope, kept


def _policies(query: SurvivalQuery, which: np.ndarray, budget: np.ndarray,
              k: np.ndarray, cset: Optional[ConstellationSet] = None) -> list:
    """The policy of each element, law which[i] at budget[i]: the
    water-filling cutoff at penalty k[i], or where k[i] is _DR the
    discrete-rate policy of cset. All are solved in one lockstep solve,
    and each evaluation reads the tables once (_spent). Each answer is a
    CutoffSolution, a DrPolicy or the exception that its element met; the
    region probabilities come from S at the edges of the root's
    evaluation."""
    order = np.argsort(k == _DR, kind="stable")     # water-filling first
    which, budget, k = which[order], budget[order], k[order]
    dr = k == _DR
    kk = np.where(dr, cset.k if cset else 1.0, k)
    # water-filling solves ∫_{γ₀/k}^∞ S/x² = k·budget, which the table
    # inverts to a start; the spent power never exceeds 1/γ₀, so the root
    # lies at or below 1/budget, which caps the start. The discrete rate
    # starts at _DR_START times the continuous-rate start, capped at
    # (M_max − 1)/budget as the power never exceeds (M_max − 1)/g*.
    start = kk * query.sf_integral_inverse(which, kk * budget)
    start = np.where(dr, np.minimum(_DR_START * start, (
        cset.sizes[-1] - 1.0 if cset else 0.0) / budget),
        np.minimum(start, 1.0 / budget))
    roots = solve_decreasing(
        lambda x, i: _spent(query, which[i], x, k[i], cset), budget, start)
    probs = (-np.diff(roots.kept, axis=1, append=0.0)).tolist()
    out = [None] * len(order)
    for o, err, x, res, evals, p, d in zip(
            order.tolist(), roots.errors, roots.x.tolist(),
            roots.residual.tolist(), roots.evals.tolist(), probs, dr.tolist()):
        out[o] = err or (DrPolicy(
            gamma_star=x, boundaries=tuple(mj * x for mj in cset.sizes[1:]),
            region_probs=tuple(p), residual=res, iterations=evals) if d else
            CutoffSolution(gamma0=x, residual=res, iterations=evals))
    return out


def _alone(dist: MudDistribution, budget: float, k: float,
           cset: Optional[ConstellationSet] = None):
    """_policies for one element, law dist: its policy, or its exception
    raised."""
    query = SurvivalQuery([dist])
    (out,) = query.errors if query.errors[0] else _policies(
        query, np.zeros(1, dtype=int), np.array([budget]), np.array([k]), cset)
    if isinstance(out, Exception):
        raise out
    return out


def solve_cutoff(dist: MudDistribution, c: ConstraintSpec) -> CutoffSolution:
    """Cutoff γ₀ for the capacity-optimal policy (1/γ₀ − 1/x above γ₀)."""
    return solve_cutoff_cr(dist, c, 1.0)


def solve_cutoff_cr(dist: MudDistribution, c: ConstraintSpec,
                    k: float) -> CutoffSolution:
    """Cutoff γ₀ for continuous-rate adaptive modulation with penalty K:
    transmission above γ₀/K, power 1/γ₀ − 1/(x·K). K=1 is solve_cutoff."""
    if not 0.0 < k <= 1.0:
        raise ValueError(f"power-loss factor must be in (0, 1], got {k}")
    return _alone(dist, c.budget_ratio, k)


def solve_dr_policy(dist: MudDistribution, c: ConstraintSpec,
                    cset: ConstellationSet) -> DrPolicy:
    """Find the region parameter g* spending exactly the power budget, then
    tabulate region edges and selection probabilities."""
    return _alone(dist, c.budget_ratio, _DR, cset)
