"""The survival and density that the solvers read from a survival table.

SurvivalQuery reads S and f_max = −(dS/ds)/x from the interpolant of S on
each panel of a SurvivalTable. Each is checked against
the exact laws, MudDistribution.sf and .pdf, on both links, and the ends of
the table (below s_lo, past s_hi, τ = 0, τ = ∞, NaN) are checked on their
own. A solve evaluates no base law once its tables are built. The table
evaluates the interpolant and its integrals in monomial form by Horner's
rule; the last test holds that form to the panel's Legendre series.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import legder, legval

import crlink.fading as fading
import crlink.numerics as numerics
from crlink.fading import FadingSpec, LinkKind, SnrDistribution
from crlink.mud import MudDistribution, SurvivalQuery, _unit_tables
from crlink.power import ConstellationSet
from crlink.sweep import build_point, solve_point

MEAN = 3.7
X = MEAN * np.logspace(-4.0, 4.0, 801)     # x/γ̄ from 1e-4 to 1e4, with 1


def _query(dist, x, power=2):
    """S, f_max, G_power and its error estimate of dist at the points x,
    read through a one-law SurvivalQuery."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return SurvivalQuery([dist])(np.zeros(len(x), dtype=int), x, power)


def _survival(table, tau, g2=False):
    """S(τ) and dS/ds of one table at the points tau, and G2(τ) too if g2
    (_Batch.query)."""
    tau = np.asarray(tau, dtype=float).reshape(-1)
    out = table._batch.query(np.full(len(tau), table._index), tau, 2,
                             np.full(len(tau), g2))
    return out[:3] if g2 else out[:2]


def _integral(table, tau, power):
    """G_power(τ) of one table and its error estimate (_Batch.query)."""
    out = table._batch.query(np.array([table._index]), np.array([tau]), power)
    return float(out[2][0]), float(out[3][0])


@pytest.mark.parametrize("L", [1, 5, 200])
@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 7.3, 15.0])
@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
def test_sf_pdf_matches_the_exact_laws(link, m, L):
    dist = MudDistribution(SnrDistribution(FadingSpec(MEAN, m), link), L)
    sf, pdf = _query(dist, X)[:2]
    exact_sf, exact_pdf = dist.sf(X), dist.pdf(X)
    held = exact_sf > 1e-280
    assert held.sum() > 100
    assert np.all(np.abs(sf[held] - exact_sf[held]) <= 1e-12 * exact_sf[held])
    held = exact_pdf > 1e-6 * exact_pdf.max()
    assert np.all(np.abs(pdf[held] - exact_pdf[held]) <= 1e-4 * exact_pdf[held])


@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
def test_survival_below_the_table_and_at_the_ends(link):
    (table,) = _unit_tables(link, 2.0, [5]).values()
    sf, slope = _survival(table, [0.0, 1e-300, math.exp(table.s_lo - 1.0),
                                  math.inf])
    assert sf.tolist() == [1.0, 1.0, 1.0, 0.0]
    assert slope.tolist() == [0.0, 0.0, 0.0, 0.0]
    # at s_lo the series meets the closed form to rounding
    sf, slope = _survival(table, math.exp(table.s_lo))
    assert abs(sf[0] - 1.0) <= 2.3e-16 and abs(slope[0]) <= 1e-15
    for bad in (math.nan, -1.0):
        with pytest.raises(ValueError, match=">= 0"):
            _survival(table, [1.0, bad])


def test_density_at_the_origin_is_zero():
    # osa m = 1.5, L = 5 at 10 dB: below s_lo S is 1 and its slope 0, so
    # f_max is the exact pdf(0) = 0, with no division by x = 0
    dist = MudDistribution(SnrDistribution(FadingSpec(10.0, 1.5),
                                           LinkKind.DIRECT), 5)
    assert dist.pdf(0.0) == 0.0
    assert [v.tolist() for v in _query(dist, 0.0)[:2]] == [[1.0], [0.0]]
    assert _query(dist, 0.0, 2)[2][0] == math.inf
    sf, pdf = _query(dist, [0.0, 1.0])[:2]
    assert sf[0] == 1.0 and pdf[0] == 0.0
    assert (sf[1], pdf[1]) == tuple(v[0] for v in _query(dist, 1.0)[:2]) \
        and pdf[1] > 0.0


def test_queries_refuse_nan_and_negative_arguments():
    # each names the argument its caller passed, not the scaled τ
    dist = MudDistribution(SnrDistribution(FadingSpec(10.0, 1.5),
                                           LinkKind.DIRECT), 5)
    for bad in (math.nan, -1.0):
        with pytest.raises(ValueError, match="^x must be numbers >= 0"):
            _query(dist, [1.0, bad])


def test_survival_past_a_closed_table_is_zero():
    # the direct-link law is 0 at s_hi, so is all that lies beyond it
    (table,) = _unit_tables(LinkKind.DIRECT, 1.5, [5]).values()
    assert not table._open
    sf, slope = _survival(table, math.exp(table.s_hi)
                          * np.array([1.0, 2.0, 1e9]))
    assert sf.tolist() == slope.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("m", [0.5, 2.0])
def test_survival_past_an_open_table_is_the_law(m):
    # past s_hi the ratio-link S is evaluated, and its slope is the power
    # law's −m·S
    dist = MudDistribution(SnrDistribution(FadingSpec(1.0, m), LinkKind.RATIO), 5)
    table = dist._table()[0]
    assert table._open
    tau = math.exp(table.s_hi) * np.array([1.5, 1e10, 1e100])
    sf, slope = _survival(table, tau)
    assert sf.tolist() == dist.sf(tau).tolist()
    assert np.all(sf > 0.0)
    assert np.all(np.abs(slope + m * sf) <= 1e-9 * m * sf)


@pytest.mark.parametrize("m", [1.5, 2.5])
def test_tail_integrals_are_never_negative(m):
    # near the direct link's end, where S falls to 0, a part-panel integral
    # rounds a few subnormals below 0 (about τ = 300 at m = 2.5); G is 0
    # there
    tables = _unit_tables(LinkKind.DIRECT, m, (1, 5, 20))
    query = SurvivalQuery([MudDistribution(SnrDistribution(
        FadingSpec(1.0, m), LinkKind.DIRECT), L, tables) for L in (1, 5, 20)])
    tau = np.linspace(10.0, 3000.0, 4001)
    for d in range(3):
        for power in (1, 2):
            g = query(np.full(len(tau), d), tau, power)[2]
            assert np.all(g >= 0.0), (d, power, g.min())


def test_solve_reads_no_base_law(monkeypatch):
    # once the tables are built, a solve and its metrics read S and f_max
    # from them and evaluate no base law
    cset = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
    points = [build_point("osa", 1.5, 5, 10.0, None),
              build_point("ss", 2.0, 5, 10.0, 0.0)]
    for dist, _ in points:
        dist._table()

    def refuse(*args):
        raise AssertionError("a base law was evaluated")
    for name in ("sf_direct", "sf_ratio", "pdf_direct", "pdf_ratio",
                 "cdf_direct", "cdf_ratio"):
        monkeypatch.setattr(fading, name, refuse)
    for dist, constraint in points:
        sol = solve_point(dist, constraint, cset)
        assert sol.capacity > sol.se_cr > sol.se_dr > 0.0


def _legendre_panel(table, tau):
    """S, dS/ds, G2 and G1 at tau inside the table from the Legendre series
    of the panel that holds it, as the table read them before it took the
    monomial form: S − 1 on a panel where S >= 1/2, and the part-panel
    integrals from ∫_u^1 P_k = (1 − u²)·P'_k(u)/(k(k+1)). From its split
    on, the panel is its tail's and the four are scaled by its factor."""
    s = math.log(tau)
    if s >= table._split:
        return tuple(table._factor * v
                     for v in _legendre_panel(table._tail, tau))
    j = max(int(np.searchsorted(table._lo, s)) - 1, 0)
    b = table._batch
    f = b._nodes.values(b._law, table._rows[j:j + 1],
                        b._param[[table._index]])[:, 0]
    lead = 1.0 if f[1].min() >= 0.5 else 0.0
    f[1] -= lead
    c = f @ numerics._LEG_FROM_NODES
    c[1, 0] += lead
    a, b = table._lo[j], table._hi[j]
    u = (2.0 * s - a - b) / (b - a)
    k = np.arange(15.0)
    parts = [0.5 * (b - a) * (ck[0] * (1.0 - u) + (1.0 - u * u) * legval(
        u, legder(np.concatenate([[0.0], ck[1:] / (k[1:] * k[1:] + k[1:])]))))
        for ck in c]
    return (legval(u, c[1]), legval(u, legder(c[1])) * 2.0 / (b - a),
            table._right[0, j + 1] + parts[0], table._right[1, j + 1] + parts[1])


@pytest.mark.parametrize("L", [1, 5, 200])
@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 7.3, 15.0])
@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
def test_horner_form_matches_the_legendre_series(link, m, L):
    # the monomial coefficients that the table evaluates by Horner's rule
    # give the interpolant that the panel's Legendre series gives
    table = MudDistribution(SnrDistribution(FadingSpec(MEAN, m), link),
                            L)._table()[0]
    tau = [t for t in (X / MEAN).tolist()
           if table.s_lo <= math.log(t) < table.s_hi]
    got = np.column_stack(_survival(table, tau, g2=True)
                          + ([_integral(table, t, 1)[0] for t in tau],))
    ref = np.array([_legendre_panel(table, t) for t in tau])
    assert got[:, 2].tolist() == [_integral(table, t, 2)[0] for t in tau]
    held = ref[:, 0] > 1e-280               # as the exact laws are held above
    assert held.sum() > 100
    got, ref, tau = got[held], ref[held], np.array(tau)[held]
    for col in (0, 2, 3):                   # S, G2, G1
        assert np.all(np.abs(got[:, col] - ref[:, col]) <= 1e-14 * ref[:, col])
    f_max = -ref[:, 1] / tau
    held = f_max > 1e-6 * f_max.max()
    assert np.all(np.abs(got[held, 1] - ref[held, 1])
                  <= 1e-12 * np.abs(ref[held, 1]))
