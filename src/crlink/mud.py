"""Best-of-L selection: order statistics of the strongest user SNR.

With L i.i.d. users the selected SNR is the maximum, with density
L·f(x)·F(x)^{L-1}, CDF F(x)^L and survival function S(x) = 1 − F(x)^L.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Tuple

import numpy as np

from .fading import FadingSpec, LinkKind, SnrDistribution, _best_draws
from .numerics import _survival_tables


def _is_number(v) -> bool:
    """A real number that is not a boolean."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _whole_numbers(key: str, vals) -> Tuple[int, ...]:
    """vals as ints; a fraction, a boolean or a non-number fails naming key."""
    if not all(_is_number(v) and float(v).is_integer() for v in vals):
        raise ValueError(f"{key} takes whole numbers only, got {vals}")
    return tuple(int(v) for v in vals)


def _whole_number(key: str, value, low: int) -> int:
    """value as an int, refused naming key unless whole and >= low."""
    (n,) = _whole_numbers(key, (value,))
    if n < low:
        raise ValueError(f"{key} must be >= {low}, got {n}")
    return n


@dataclass(frozen=True)
class MudDistribution:
    """Distribution of the maximum SNR among num_users i.i.d. links.

    tables holds the survival tables of sf_integral, keyed by (link, m, L);
    distributions that share the dict share a table. By default each
    distribution has its own.
    """

    base: SnrDistribution
    num_users: int
    tables: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "num_users",
                           _whole_number("num_users", self.num_users, 1))

    def pdf(self, x):
        return mud_pdf(self, x)

    def cdf(self, x):
        return mud_cdf(self, x)

    def sf(self, x):
        """1 − F(x)^L from the base survival (_best_of)."""
        return _best_of(self.base.sf(x), self.num_users)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return mud_sample(self, rng, n)

    def sf_integral(self, t: float, power: int) -> Tuple[float, float]:
        """∫_t^∞ S(x)/x^power dx for power 1 or 2, and its error estimate.

        The scale enters S only through its argument, S(x) = S₁(x/γ̄) with
        S₁ the law at unit mean (unit scale for the ratio link), so the
        integral is G(t/γ̄)·γ̄^(1−power) from the SurvivalTable of S₁, built
        by _unit_tables at the first call for this (link, m, L) unless the
        dict already holds it.
        """
        link, m, users = self.base.link, self.base.spec.m, self.num_users
        key = (link, m, users)
        if key not in self.tables:
            self.tables.update(_unit_tables(link, m, [users]))
        g = self.base.spec.mean_snr
        val, err = self.tables[key].integral(t / g, power)
        scale = g ** (power - 1)
        return val / scale, err / scale


def mud_pdf(d: MudDistribution, x):
    """L·f(x)·F(x)^{L-1}; exactly the base pdf for L=1."""
    f = d.base.pdf(x)
    F = d.base.cdf(x)
    return d.num_users * f * F ** (d.num_users - 1)


def mud_cdf(d: MudDistribution, x):
    """F(x)^L; exactly the base CDF for L=1."""
    return d.base.cdf(x) ** d.num_users


def _best_of(q, users: int):
    """The survival 1 − (1 − Q)^L of the best of L users from the base
    survival Q, as −expm1(L·log1p(−Q)) so the upper tail keeps full
    relative precision for any L."""
    with np.errstate(divide="ignore"):      # Q = 1: log1p is −inf, S is 1
        return -np.expm1(users * np.log1p(-q))


def _unit_tables(link: LinkKind, m: float, users: Iterable[int]) -> dict:
    """The survival tables of the unit-scale best-of-L law for every L in
    users, keyed (link, m, L) as MudDistribution.tables is. They are built
    in one batch on the base survival Q, which is evaluated once per node
    for all of them; each table equals its one-L build bit for bit."""
    users = list(users)
    base = SnrDistribution(FadingSpec(1.0, m), link).sf
    tables = _survival_tables(base, [partial(_best_of, users=L) for L in users])
    return {(link, m, L): t for L, t in zip(users, tables)}


def mud_sample(d: MudDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of the best-of-L SNR: columnwise maximum of L base draws."""
    return _best_draws(d.base, rng, d.num_users, n)
