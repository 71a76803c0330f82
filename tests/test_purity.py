"""Elementwise kernels and batched survival tables.

An element's value never depends on the rest of its array, so a survival
table built in a batch of user counts equals its one-L build bit for bit.
"""

import math
from functools import partial

import numpy as np
import pytest

import crlink.numerics as numerics
from crlink.fading import (FadingSpec, LinkKind, SnrDistribution, cdf_direct,
                           cdf_ratio, pdf_direct, pdf_ratio, sf_direct,
                           sf_ratio)
from crlink.mud import MudDistribution, _best_of, _unit_tables
from incomplete_gamma import reg_upper_gamma, upper_gamma_many

USERS = [1, 5, 15, 200, 1000]


def _bits(a) -> bytes:
    a = np.asarray(a)
    return repr(a.shape).encode() + a.tobytes()


def _every_panel(table) -> np.ndarray:
    """Every panel of table as its batch forms it, one row each: its edges,
    its polynomials (SurvivalTable._forms) and its right sums; this forms
    them all."""
    return np.column_stack([table._lo, table._hi, table._forms(),
                            table._right[:, 1:].T])


def _as_is(q, p):
    """The base itself as the law: S = p·Q at p = 1."""
    return p * q


def _integral(table, tau, power):
    """G_power(τ) of one table and its error estimate (_Batch.query)."""
    out = table._batch.query(np.array([table._index]), np.array([tau]), power)
    return float(out[2][0]), float(out[3][0])


@pytest.mark.parametrize("a", [0.5, 1.5, 2.5, 7.3, 13.1])
def test_gamma_halves_is_elementwise(a):
    # each element of Q over an array from _gamma_halves is its value at
    # that point alone, whatever array it comes in and whenever its loop
    # drops it as converged
    rng = np.random.default_rng(11)
    x = np.concatenate([[0.0, a + 1.0], rng.uniform(0.0, 3.0 * a + 3.0, 1500),
                        np.geomspace(1e-8, 800.0, 500)])
    scalar = [reg_upper_gamma(a, v) for v in x.tolist()]
    assert upper_gamma_many(a, x).tolist() == scalar
    for size in (1, 7, 63, 64, 97, 500):
        split = np.concatenate([upper_gamma_many(a, x[i:i + size])
                                for i in range(0, len(x), size)])
        assert split.tolist() == scalar, size
    perm = rng.permutation(len(x))
    assert upper_gamma_many(a, x[perm]).tolist() == [scalar[i] for i in perm]


@pytest.mark.parametrize("m", [0.5, 1.5, 2.5, 7.3, 12.5, 1.0, 2.0])
def test_laws_are_elementwise(m):
    # the incomplete-gamma loops and the incomplete-beta fraction stop per
    # element (at 12.5 the fraction runs longest of these m)
    y = np.geomspace(1e-6, 1e6, 601)
    spec = FadingSpec(1.0, m)
    best = MudDistribution(SnrDistribution(spec, LinkKind.RATIO), 5)
    for fn in (partial(sf_direct, spec), partial(cdf_direct, spec),
               partial(sf_ratio, spec), partial(pdf_direct, spec),
               partial(pdf_ratio, spec), partial(cdf_ratio, spec), best.sf,
               best.pdf):
        batch = fn(y).tolist()
        assert [fn(y[i:i + 1])[0] for i in range(len(y))] == batch
        split = np.concatenate([fn(y[i:i + 37]) for i in range(0, len(y), 37)])
        assert split.tolist() == batch


@pytest.mark.parametrize("link", [LinkKind.DIRECT, LinkKind.RATIO])
@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 4.0, 7.3])
def test_batch_tables_equal_their_one_user_count_builds(link, m):
    batch = _unit_tables(link, m, USERS)
    assert list(batch) == [(link, m, L) for L in USERS]
    for L in USERS:
        (alone,) = _unit_tables(link, m, [L]).values()
        table = batch[link, m, L]
        assert (table.s_lo, table._split, table.s_hi, table._factor) == (
            alone.s_lo, alone._split, alone.s_hi, alone._factor)
        assert (table._tail is None) == (alone._tail is None)
        # the head and the tail it reads past its split, if it has one
        for part, own in ((table, alone), (table._tail, alone._tail)):
            if part is None:
                continue
            assert (part.s_lo, part.s_hi) == (own.s_lo, own.s_hi)
            for name in ("_lo", "_hi", "_right", "_right_err"):
                assert _bits(getattr(part, name)) == _bits(
                    getattr(own, name)), name
            assert _bits(_every_panel(part)) == _bits(_every_panel(own))
        for tau in (1e-9, 0.3, 3.0, 1e25):
            assert _integral(table, tau, 2) == _integral(alone, tau, 2)
            assert _integral(table, tau, 1) == _integral(alone, tau, 1)


def test_batch_evaluates_the_base_once_per_node():
    # the base is called at the grid, once at the split lattice and then at
    # the nodes of panels no earlier call saw, far fewer of them than the
    # tables read between them: the heads, which share most of their
    # panels, and the tail, counted once
    base = SnrDistribution(FadingSpec(1.0, 1.5), LinkKind.DIRECT).sf
    calls = []

    def counted(y):
        calls.append(np.array(y, copy=True))
        return base(y)
    users = range(1, 21)
    tables = numerics._survival_tables(counted, _best_of, users, tail=True)
    tail = tables[0]._tail
    assert all(t._tail is tail for t in tables)
    for t in tables + [tail]:
        _every_panel(t)
    grid, lattice, *rest = calls
    assert len(grid) == len(numerics._TABLE_GRID)
    assert len(lattice) % len(numerics._SPLIT_STEPS) == 0
    panels = np.concatenate([y.reshape(-1, 15) for y in rest])
    assert len(np.unique(panels, axis=0)) == len(panels)
    heads = np.concatenate([t._rows for t in tables])
    assert len(np.unique(heads)) < len(heads) / 5
    assert len(panels) < (len(heads) + len(tail._lo)) / 1.5


@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 4.0, 7.3])
def test_a_tail_of_zeros_is_not_integrated(m, monkeypatch):
    # the direct law is exactly 0 from s_hi on; the tail integrals of its
    # table are the (0.0, 0.0) that integrate_to_inf returns there, taken
    # without calling it
    dist = MudDistribution(SnrDistribution(FadingSpec(1.0, m),
                                           LinkKind.DIRECT), 5)
    real = numerics.integrate_to_inf
    calls = []
    monkeypatch.setattr(numerics, "integrate_to_inf",
                        lambda *args: calls.append(args) or real(*args))
    table = numerics._survival_tables(dist.sf, _as_is, [1.0])[0]
    assert calls == []
    start = math.exp(table.s_hi)
    assert dist.sf(start) == 0.0
    for power in (2, 1):
        assert real(lambda y: dist.sf(y) / y ** power, start, 0.0,
                    numerics._TABLE_REL) == (0.0, 0.0)
    assert _every_panel(table)[-1, -2:].tolist() == [0.0, 0.0]
    assert table._right[:, -1].tolist() == [0.0, 0.0]
    assert table._right_err[:, -1].tolist() == [0.0, 0.0]
