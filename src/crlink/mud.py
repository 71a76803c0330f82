"""Best-of-L selection: order statistics of the strongest user SNR.

With L i.i.d. users the selected SNR is the maximum, with density
L·f(x)·F(x)^{L-1}, CDF F(x)^L and survival function S(x) = 1 − F(x)^L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fading import SnrDistribution


@dataclass(frozen=True)
class MudDistribution:
    """Distribution of the maximum SNR among num_users i.i.d. links."""

    base: SnrDistribution
    num_users: int

    def __post_init__(self):
        if self.num_users < 1:
            raise ValueError(f"num_users must be >= 1, got {self.num_users}")

    def pdf(self, x):
        return mud_pdf(self, x)

    def cdf(self, x):
        return mud_cdf(self, x)

    def sf(self, x):
        return mud_sf(self, x)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return mud_sample(self, rng, n)


def mud_pdf(d: MudDistribution, x):
    """L·f(x)·F(x)^{L-1}; exactly the base pdf for L=1."""
    f = d.base.pdf(x)
    F = d.base.cdf(x)
    return d.num_users * f * F ** (d.num_users - 1)


def mud_cdf(d: MudDistribution, x):
    """F(x)^L; exactly the base CDF for L=1."""
    return d.base.cdf(x) ** d.num_users


def mud_sf(d: MudDistribution, x):
    """1 − F(x)^L as −expm1(L·log1p(−Q)) from the base survival Q, so the
    upper tail keeps full relative precision for any L; Q itself for L=1."""
    q = d.base.sf(x)
    if d.num_users == 1:
        return q
    return -np.expm1(d.num_users * np.log1p(-q))


def mud_sample(d: MudDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of the best-of-L SNR: columnwise maximum of L base draws."""
    draws = d.base.sample(rng, (d.num_users, n))
    return draws.max(axis=0)
