"""The survival and density that the solvers read from a survival table.

MudDistribution.sf_pdf reads S and f_max = −(dS/ds)/x from the Legendre
series of S that each SurvivalTable holds. Each is checked against the
exact laws, MudDistribution.sf and .pdf, on both links, and the ends of the
table (below s_lo, past s_hi, τ = 0, τ = ∞, NaN) are checked on their own.
The last test makes sure that a solve no longer evaluates a base law once
its tables are built.
"""

import math

import numpy as np
import pytest

import crlink.fading as fading
from crlink.fading import FadingSpec, LinkKind, SnrDistribution
from crlink.mud import MudDistribution, _unit_tables
from crlink.power import ConstellationSet
from crlink.sweep import build_point, solve_point

MEAN = 3.7
X = MEAN * np.logspace(-4.0, 4.0, 801)     # x/γ̄ from 1e-4 to 1e4, with 1


@pytest.mark.parametrize("L", [1, 5, 200])
@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 7.3, 15.0])
@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
def test_sf_pdf_matches_the_exact_laws(link, m, L):
    dist = MudDistribution(SnrDistribution(FadingSpec(MEAN, m), link), L)
    sf, pdf = dist.sf_pdf(X)
    exact_sf, exact_pdf = dist.sf(X), dist.pdf(X)
    held = exact_sf > 1e-280
    assert held.sum() > 100
    assert np.all(np.abs(sf[held] - exact_sf[held]) <= 1e-12 * exact_sf[held])
    held = exact_pdf > 1e-6 * exact_pdf.max()
    assert np.all(np.abs(pdf[held] - exact_pdf[held]) <= 1e-4 * exact_pdf[held])


@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
def test_survival_below_the_table_and_at_the_ends(link):
    (table,) = _unit_tables(link, 2.0, [5]).values()
    sf, slope = table.survival([0.0, 1e-300, math.exp(table.s_lo - 1.0),
                                math.inf])
    assert sf.tolist() == [1.0, 1.0, 1.0, 0.0]
    assert slope.tolist() == [0.0, 0.0, 0.0, 0.0]
    # at s_lo the series meets the closed form to rounding
    sf, slope = table.survival(math.exp(table.s_lo))
    assert abs(sf[0] - 1.0) <= 2.3e-16 and abs(slope[0]) <= 1e-15
    for bad in (math.nan, -1.0):
        with pytest.raises(ValueError, match=">= 0"):
            table.survival([1.0, bad])


def test_survival_past_a_closed_table_is_zero():
    # the direct-link law is 0 at s_hi, so is all that lies beyond it
    (table,) = _unit_tables(LinkKind.DIRECT, 1.5, [5]).values()
    assert not table._open
    sf, slope = table.survival(math.exp(table.s_hi) * np.array([1.0, 2.0, 1e9]))
    assert sf.tolist() == slope.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("m", [0.5, 2.0])
def test_survival_past_an_open_table_is_the_law(m):
    # past s_hi the ratio-link S is evaluated, and its slope is the power
    # law's −m·S
    dist = MudDistribution(SnrDistribution(FadingSpec(1.0, m), LinkKind.RATIO), 5)
    table = dist._table()[0]
    assert table._open
    tau = math.exp(table.s_hi) * np.array([1.5, 1e10, 1e100])
    sf, slope = table.survival(tau)
    assert sf.tolist() == dist.sf(tau).tolist()
    assert np.all(sf > 0.0)
    assert np.all(np.abs(slope + m * sf) <= 1e-9 * m * sf)


def test_solve_reads_no_base_law(monkeypatch):
    # once the tables are built, a solve and its metrics read S and f_max
    # from them and evaluate no base law
    cset = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
    points = [build_point("osa", 1.5, 5, 10.0, None),
              build_point("ss", 2.0, 5, 10.0, 0.0)]
    for dist, _ in points:
        dist.sf_integral(1.0, 2)

    def refuse(*args):
        raise AssertionError("a base law was evaluated")
    for name in ("sf_direct", "sf_ratio", "pdf_direct", "pdf_ratio",
                 "cdf_direct", "cdf_ratio"):
        monkeypatch.setattr(fading, name, refuse)
    for dist, constraint in points:
        sol = solve_point(dist, constraint, cset)
        assert sol.capacity > sol.se_cr > sol.se_dr > 0.0
