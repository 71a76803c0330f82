"""The survival-function form behind the solvers and rate metrics.

Integration by parts moves every policy integral from the selection
density f_max = L·f·F^(L−1) onto S = 1 − F^L. Each identity is checked
against the density form built from `integrate` and `mud_pdf` alone, and
each closed-form Newton derivative against a central difference.
"""

import math

import numpy as np
import pytest

from crlink.fading import LinkKind, SnrDistribution, nakagami
from crlink.metrics import spectral_efficiency_cr
from crlink.mud import MudDistribution, SurvivalQuery, mud_pdf
from crlink.numerics import integrate
from crlink.power import _DR, ConstellationSet, CutoffSolution, _spent

K = 0.6
GAMMA0 = 0.7
CSET = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
CASES = [(link, m, L) for link in (LinkKind.DIRECT, LinkKind.RATIO)
         for m in (0.5, 1.0, 1.5, 2.0) for L in (1, 5, 15)]


def _at(dist, x, k, cset=None):
    """The spent power of one policy of dist at x, and its derivative in x
    (power._spent): water-filling at penalty k, or the discrete rate of
    cset where k is _DR."""
    power, slope = _spent(SurvivalQuery([dist]), np.zeros(1, dtype=int),
                          np.array([x]), np.array([k]), cset)[:2]
    return float(power[0]), float(slope[0])


def _waterfill_spent(dist, gamma0, k):
    return _at(dist, gamma0, k)


def _dr_spent(dist, gamma_star, cset):
    return _at(dist, gamma_star, _DR, cset)


def _dist(link, m, L):
    return MudDistribution(SnrDistribution(nakagami(m, 1.0), link), L)


def _split_integral(fn, a, b):
    """∫_a^b fn over eight equal pieces, so narrow interior features cannot
    hide between the nodes of a single wide panel."""
    edges = np.linspace(a, b, 9)
    return sum(integrate(fn, lo, hi, abs_tol=0.0, rel_tol=1e-13)[0]
               for lo, hi in zip(edges, edges[1:]))


def _density_form(dist, weight, t):
    """∫_t^∞ weight(x)·f_max(x) dx: [t, c] directly, x = c/u beyond."""
    c = max(2.0 * t, 8.0)
    head = _split_integral(lambda x: weight(x) * mud_pdf(dist, x), t, c)

    def tail(u):
        x = c / u
        return weight(x) * mud_pdf(dist, x) * c / (u * u)

    return head + _split_integral(tail, 0.0, 1.0)


@pytest.mark.parametrize("link,m,L", CASES)
def test_survival_identities_match_density_form(link, m, L):
    dist = _dist(link, m, L)
    t = GAMMA0 / K
    power = _density_form(dist, lambda x: 1.0 / GAMMA0 - 1.0 / (x * K), t)
    assert abs(_waterfill_spent(dist, GAMMA0, K)[0] - power) <= 1e-10 * power
    rate = _density_form(dist, lambda x: np.log2(x / t), t)
    se_cr = spectral_efficiency_cr(dist, CutoffSolution(GAMMA0, 0, 0), K).value
    assert abs(se_cr - rate) <= 1e-10 * rate


def _central(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


@pytest.mark.parametrize("link,m,L", CASES[::2])
def test_newton_derivatives_match_central_differences(link, m, L):
    dist = _dist(link, m, L)
    for g in (0.3, 1.0, 4.0):
        exact = _waterfill_spent(dist, g, K)[1]
        approx = _central(lambda x: _waterfill_spent(dist, x, K)[0], g, 1e-4 * g)
        assert exact < 0.0
        assert abs(exact - approx) <= 1e-6 * abs(exact)
    for gs in (0.05, 0.5, 3.0):
        exact = _dr_spent(dist, gs, CSET)[1]
        approx = _central(lambda x: _dr_spent(dist, x, CSET)[0],
                          gs, 1e-4 * gs)
        assert exact < 0.0
        assert abs(exact - approx) <= 1e-6 * abs(exact)
    # the water-filling derivative is −S(t)/γ₀² with S read from the
    # survival table, no quadrature involved
    assert math.isclose(_waterfill_spent(dist, 2.0, K)[1],
                        -float(SurvivalQuery([dist])(
                            np.zeros(1, dtype=int), np.array([2.0 / K]),
                            2)[0][0]) / 4.0, rel_tol=1e-15)
