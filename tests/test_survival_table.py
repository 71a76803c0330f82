"""The tabulated tail integrals G2(τ) = ∫_τ^∞ S/y² and G1(τ) = ∫_τ^∞ S/y.

Each table is checked against adaptive quadrature of the scalar survival
function over τ from 1e-20 to 1e20. The reference integrates
[τ, 1] in s = ln y with `integrate` and [max(τ, 1), ∞) with
`integrate_to_inf`: the x = τ/v⁴ map of `integrate_to_inf` alone loses
best-of-L mass lying beyond about 1e9·τ, which is up to 2e-9 of G2 at
τ = 1e-8, while the table resolves it.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest
import rayleigh

from crlink import numerics
from crlink.exceptions import ConvergenceError
from crlink.fading import FadingSpec, LinkKind, SnrDistribution
from crlink.mud import (MudDistribution, SurvivalQuery, _best_of, _best_of_log,
                        _unit_tables)
from crlink.numerics import _survival_tables, integrate, integrate_to_inf

TAUS = [10.0 ** k for k in range(-20, 21, 4)] + [0.3, 3.0]
REL = 1e-12


def _as_is(q, p):
    """The base itself as the law: S = p·Q at p = 1."""
    return p * q


def _unit(link, m, L):
    return MudDistribution(SnrDistribution(FadingSpec(1.0, m), link), L)


def _reference(dist, tau, power):
    fn = lambda y: dist.sf(y) / y ** power           # noqa: E731
    total = integrate_to_inf(fn, max(tau, 1.0), 0.0, 1e-13)[0]
    if tau < 1.0:
        total += integrate(lambda s: dist.sf(np.exp(s)) * np.exp((1 - power) * s),
                           math.log(tau), 0.0, 0.0, 1e-13)[0]
    return total


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


def _sf_integral(dist, t, power):
    """∫_t^∞ S(x)/x^power dx of dist and its error estimate, read through a
    one-law SurvivalQuery."""
    out = SurvivalQuery([dist])(np.zeros(1, dtype=int), np.array([t]), power)
    return float(out[2][0]), float(out[3][0])


def _check(dist, taus):
    dist._table()                                    # builds the table
    (table,) = dist.tables.values()
    for tau in taus:
        for power in (2, 1):
            ref = _reference(dist, tau, power)
            if ref > 1e-300:
                got = _integral(table, tau, power)[0]
                assert abs(got - ref) <= REL * ref, (tau, power, got, ref)


@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 4.0, 7.3])
@pytest.mark.parametrize("L", [1, 5, 15, 200, 1000])
def test_table_matches_quadrature(link, m, L):
    _check(_unit(link, m, L), TAUS)


def test_concentrated_bulk_at_60_db():
    # osa 60 dB, L = 50, m = 4: the cutoffs sit near 1e-6 of the mean, so
    # the queries land far below the bulk of the unit-scale law
    _check(_unit(LinkKind.DIRECT, 4.0, 50), [1e-7, 3e-7, 1e-6, 3e-6, 1e-5])


@pytest.mark.parametrize("L", [1, 5, 15, 200])
def test_rayleigh_table_matches_closed_form(L):
    # the Rayleigh direct link at unit mean, against the finite sums of
    # E1(kτ) and e^{−kτ}/τ
    dist = _unit(LinkKind.DIRECT, 1.0, L)
    for tau in (1e-6, 1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0):
        for power, ref in zip((1, 2), rayleigh.tails(tau, 1.0, L)):
            got = _sf_integral(dist, tau, power)[0]
            assert abs(got - ref) <= REL * ref, (tau, power, got, ref)


def test_scale_enters_through_the_argument():
    base = SnrDistribution(FadingSpec(1e6, 4.0), LinkKind.DIRECT)
    dist = MudDistribution(base, 50)
    t = 0.7
    for power in (1, 2):
        got = _sf_integral(dist, t, power)[0]
        ref = integrate(lambda s: dist.sf(np.exp(s)) * np.exp((1 - power) * s),
                        math.log(t), math.log(1e6), 0.0, 1e-13)[0]
        ref += integrate_to_inf(lambda y: dist.sf(y) / y ** power, 1e6, 0.0,
                                1e-13)[0]
        assert abs(got - ref) <= REL * ref


def test_table_depends_on_its_law_alone():
    # two builds agree bit for bit, whatever was asked of the first
    sf = _unit(LinkKind.RATIO, 1.5, 5).sf
    first = _survival_tables(sf, _as_is, [1.0])[0]
    answers = [_integral(first, t, 2) + _integral(first, t, 1)
               for t in (1e-3, 0.5, 7.0, 1e25)]
    second = _survival_tables(sf, _as_is, [1.0])[0]
    assert [_integral(second, t, 2) + _integral(second, t, 1)
            for t in (1e-3, 0.5, 7.0, 1e25)] == answers
    assert first._forms().tobytes() == second._forms().tobytes()


def test_query_beyond_the_table_and_at_the_origin():
    dist = _unit(LinkKind.RATIO, 0.5, 1)
    dist._table()
    (table,) = dist.tables.values()
    tau = 10.0 * math.exp(table.s_hi)
    ref = integrate_to_inf(lambda y: dist.sf(y) / y, tau, 0.0, 1e-13)[0]
    assert abs(_integral(table, tau, 1)[0] - ref) <= REL * ref
    assert (_integral(table, 0.0, 2)[0] == _integral(table, 0.0, 1)[0]
            == math.inf)


@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
def test_query_at_infinity_and_at_nan(link):
    (table,) = _unit_tables(link, 2.0, [5]).values()
    for power in (1, 2):
        assert _integral(table, math.inf, power) == (0.0, 0.0)
        with pytest.raises(ValueError, match="nan"):
            _integral(table, math.nan, power)


def test_direct_table_past_its_end_is_zero_without_quadrature(monkeypatch):
    # the direct-link law is 0 at s_hi, so is all that lies beyond it
    (table,) = _unit_tables(LinkKind.DIRECT, 2.0, [5]).values()

    def refuse(*args):
        raise AssertionError("quadrature past a table that ends at S = 0")
    monkeypatch.setattr(numerics, "integrate_to_inf", refuse)
    for tau in (math.exp(table.s_hi), 1e30, 1e300):
        assert (_integral(table, tau, 1) == _integral(table, tau, 2)
                == (0.0, 0.0))


@pytest.mark.parametrize("m", [0.5, 2.0])
def test_ratio_table_far_past_its_end(m):
    # there S = c·y^{−m}(1 + O(1/y)) to double precision, so G1 = S(τ)/m and
    # G2 = S(τ)/(τ·(m + 1)); S/y² underflows long before these do. At
    # τ = 1e300 to 1e307 the part past the largest double, taken in closed
    # form, is 7.5e-5 to 24 % of G1 at m = 0.5
    dist = _unit(LinkKind.RATIO, m, 5)
    dist._table()
    (table,) = dist.tables.values()
    for tau in (1e60, 1e100, 1e150, 1e300, 1e305, 1e307):
        sf = dist.sf(tau)
        for power, ref in ((1, sf / m), (2, sf / tau / (m + 1.0))):
            got = _integral(table, tau, power)[0]
            assert abs(got - ref) <= REL * ref, (tau, power)
    g1, err = _integral(table, 1e300, 1)
    assert math.isfinite(g1) and math.isfinite(err)


def test_distributions_share_a_tables_dict():
    tables = {}
    base = SnrDistribution(FadingSpec(10.0, 2.0), LinkKind.RATIO)
    near = MudDistribution(base, 5, tables)
    far = MudDistribution(SnrDistribution(FadingSpec(1e3, 2.0), LinkKind.RATIO),
                          5, tables)
    near._table()
    far._table()
    assert len(tables) == 1
    assert near == MudDistribution(base, 5)           # tables take no part


def test_a_law_without_transition_is_refused():
    # S = 1 at every grid point leaves no panel between its 1s and 0s
    with pytest.raises(ValueError,
                       match="^survival function has no transition on the grid$"):
        _survival_tables(np.ones_like, _as_is, [1.0])


def test_the_panel_budget_stops_the_build(monkeypatch):
    # the direct law at m = 1.5, L = 5 refines 4 panels to 371
    monkeypatch.setattr(numerics, "_TABLE_MAX_PANELS", 50)
    sf = _unit(LinkKind.DIRECT, 1.5, 5).sf
    with pytest.raises(ConvergenceError, match="tolerance in 50 panels"):
        _survival_tables(sf, _as_is, [1.0])


@pytest.mark.parametrize("link, m, users", [
    (LinkKind.DIRECT, 1.5, range(1, 21)), (LinkKind.RATIO, 0.5, (1, 5, 15, 200))])
def test_a_batch_evaluates_each_panel_of_a_table_once(link, m, users):
    # the law sees the 15 node values of every panel that a table of each
    # parameter ever held once, whatever else is in its batch, where the
    # one-user tail that the heads share counts with parameter 1; built
    # alone, a table's node store holds exactly the panels of its head and
    # its tail (none on the ratio link at m = 0.5, whose tables are whole)
    sf = SnrDistribution(FadingSpec(1.0, m), link).sf

    def counted(elems):
        def law(q, users):
            if np.ndim(q) == 2:     # panels; the grid and lattice are 1-D
                assert np.shape(q)[1] == 15
                for L in np.unique(users).tolist():
                    elems[L] = elems.get(L, 0) + np.size(q[users[:, 0] == L])
            return _best_of(q, users)
        return law

    def build(users, elems):
        return _survival_tables(sf, counted(elems), users, tail=True)
    batch = {}
    build(users, batch)
    tails, shared = set(), set()
    for L in users:
        alone = {}
        (table,) = build([L], alone)
        assert batch[L] == alone[L]
        if L != 1:
            shared.add(alone.get(1))
        assert 15 * len(table._batch._nodes.lo) == sum(alone.values()), L
        tails.add(table._tail is None)
    assert tails == {link == LinkKind.RATIO}
    assert len(shared) == 1


def test_a_batch_calls_its_law_once_per_build_step(monkeypatch):
    # built and with every panel formed, a direct m = 1.5 batch calls its
    # law once per evaluation chunk of _TABLE_EVAL panels, once per _form,
    # once for the grid extents and once for the split lattice, however many
    # tables it holds (once per table in each, 110 calls for L = 1..20 and
    # 19 for L = 1..2, when each table had a law of its own)
    sf = SnrDistribution(FadingSpec(1.0, 1.5), LinkKind.DIRECT).sf
    sums, form = numerics._panel_sums, numerics._Batch._form

    def count(users):
        calls = {"law": 0, "chunks": 0, "forms": 0}

        def law(q, users):
            calls["law"] += 1
            return _best_of(q, users)

        def chunk(*args):
            calls["chunks"] += 1
            return sums(*args)

        def forming(batch, j):      # a _form with panels left to form
            calls["forms"] += bool(np.any(batch._slot[j] < 0))
            return form(batch, j)
        monkeypatch.setattr(numerics, "_panel_sums", chunk)
        monkeypatch.setattr(numerics._Batch, "_form", forming)
        batch = _survival_tables(sf, law, users, tail=True)[0]._batch
        batch.arrays(0)
        batch._form(np.arange(len(batch._lo)))
        assert np.all(batch._slot >= 0)
        return calls
    many, few = count(range(1, 21)), count(range(1, 3))
    for calls in (many, few):
        assert calls["law"] <= calls["chunks"] + calls["forms"] + 2, calls
        assert calls["forms"] <= 2, calls
    assert many["law"] - few["law"] <= many["chunks"] - few["chunks"]


@pytest.mark.parametrize("link, m", [
    *((LinkKind.DIRECT, m) for m in (0.5, 1.5, 2.5, 7.3, 15.0)),
    *((LinkKind.RATIO, m) for m in (1.0, 2.0, 7.3))])
def test_past_its_split_a_table_is_its_tail_times_the_users(link, m):
    # from s_c(L) on, the best of L users is L times the one-user law to
    # 4 ulp at every node of the shared tail, and table L answers there as
    # L times the tail, past s_hi too
    users = (1, 5, 20, 200, 1000)
    tables = _unit_tables(link, m, users)
    tail = tables[link, m, 1]._tail
    rows = tail._rows
    nodes = tail._batch._nodes
    q, s = nodes.q[rows], np.log(nodes.y[rows])
    for L in users:
        table = tables[link, m, L]
        assert table._tail is tail and table._factor == L
        assert tail.s_lo <= table._split < table.s_hi == tail.s_hi
        past = s >= table._split
        assert past.sum() >= 15
        exact = _best_of_log(q[past], L)
        assert np.all(np.abs(L * _best_of_log(q[past], 1) - exact)
                      <= 4.0 * np.spacing(exact)), L
        tau = math.exp(table._split) * np.array([1.0, 1.3, 2.0, 10.0, 1e3,
                                                 1e30])
        for got, ref in zip(_survival(table, tau, g2=True),
                            _survival(tail, tau, g2=True)):
            assert got.tolist() == (L * ref).tolist(), L
        for t in tau.tolist():
            assert _integral(table, t, 1) == tuple(
                L * v for v in _integral(tail, t, 1))


def test_a_direct_batch_holds_one_tail():
    # the direct link at m = 1.5, L = 1..20: heads that stop where L·S₁
    # falls to 2⁻⁵⁴ and one shared tail, about 900 panels, where whole
    # tables held 7425
    tables = _unit_tables(LinkKind.DIRECT, 1.5, range(1, 21)).values()
    tails = {id(t._tail): t._tail for t in tables
             if getattr(t, "_tail", None) is not None}
    panels = sum(len(t._lo) for t in [*tables, *tails.values()])
    assert panels <= 1200, panels
    assert len(tails) == 1


def test_a_batch_build_holds_its_working_memory_to_a_block():
    # 200 tables of about 370 panels each: what a build holds beyond the
    # tables it returns is bounded by a block of panels, not by tables ×
    # panels; MB as the benchmark's peak_rss_mb, 2^20 bytes
    def build():
        return _unit_tables(LinkKind.DIRECT, 0.5, range(1, 201))
    build()
    gc.collect()
    tracemalloc.start()
    try:
        tables = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tables) == 200
    assert peak - retained <= 2.5 * 2 ** 20
    assert retained <= 4.5 * 2 ** 20
