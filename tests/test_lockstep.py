"""Every point of a (link, m) group is solved in lockstep.

A sweep group solves the three policies of all its points in one array
solve that reads the tables in one array query per evaluation. A point's
answer must not depend on that: it is the one solve_point gives for the
point alone, and the one a two-worker sweep gives. A point that cannot be
solved fails alone, with the message it fails with alone, and the number
of table queries of a group does not grow with its number of points.
"""

import csv
import io

import pytest

import crlink.numerics as numerics
from crlink.cli import main
from crlink.fading import LinkKind
from crlink.mud import _unit_tables
from crlink.power import ConstellationSet
from crlink.sweep import (SweepConfig, build_point, run_sweep, solve_point,
                          solve_points)

CSET = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
FIG4 = SweepConfig(mode="ss", axis="q_av_db", axis_range=(-10.0, 10.0, 10.0),
                   num_users=(5, 15), m_values=(1.0, 2.0), p_av_db=10.0)
USERS = SweepConfig(mode="osa", axis="num_users", axis_range=(1, 20, 3),
                    m_values=(0.5, 2.5), p_av_db=10.0)


def _columns(r):
    return (r.gamma0_cap, r.gamma0_cr, r.gamma_star_dr, r.capacity, r.se_cr,
            r.se_dr)


def _point(cfg, r):
    p_db = r.axis_value if cfg.axis == "p_av_db" else cfg.p_av_db
    q_db = r.axis_value if cfg.axis == "q_av_db" else cfg.q_av_db
    return build_point(cfg.mode, r.m, r.ns, p_db, q_db)


@pytest.mark.parametrize("cfg", [FIG4, USERS], ids=["fig4", "osa_users"])
def test_a_point_solves_alike_alone_in_its_group_and_on_two_workers(cfg):
    rows = run_sweep(cfg).rows
    assert all(r.error == "" for r in rows)
    assert [_columns(r) for r in run_sweep(cfg, workers=2).rows] == [
        _columns(r) for r in rows]
    for r in rows:
        sol = solve_point(*_point(cfg, r), CSET)
        assert (sol.cut.gamma0, sol.cut_cr.gamma0, sol.pol.gamma_star,
                sol.capacity, sol.se_cr, sol.se_dr) == _columns(r), r


def _csv_row(text: str) -> dict:
    return list(csv.DictReader(io.StringIO(text)))[0]


def test_a_point_that_cannot_be_solved_fails_alone(capsys):
    # one table, four budgets: 200 and 300 dB of interference budget cannot
    # be spent, 0 and 100 dB can
    cfg = SweepConfig(mode="ss", axis="q_av_db", axis_range=(0.0, 300.0, 100.0),
                      num_users=(1,), m_values=(1.0,), p_av_db=0.0)
    rows = run_sweep(cfg).rows
    assert [bool(r.error) for r in rows] == [False, False, True, True]
    for r in rows:
        rc = main(["point", "--mode", "ss", "--m", "1", "--ns", "1",
                   "--p-av-db", "0", "--q-av-db", format(r.axis_value, "g")])
        alone = _csv_row(capsys.readouterr().out)
        assert rc == (1 if r.error else 0)
        assert alone["error"] == r.error
        assert alone["capacity"] == ("" if r.error else format(r.capacity, ".9g"))


def test_table_queries_do_not_grow_with_the_points_of_a_group(monkeypatch):
    # the 22 points of one fig4 group: the solve reads the tables once per
    # lockstep evaluation, and the rates once more
    calls = []
    real = numerics._Batch.query

    def counted(self, *args, **kwargs):
        calls.append(len(args[1]))
        return real(self, *args, **kwargs)
    monkeypatch.setattr(numerics._Batch, "query", counted)
    tables = _unit_tables(LinkKind.RATIO, 1.0, [5, 15])
    points = [build_point("ss", 1.0, ns, 10.0, float(q), tables)
              for q in range(-10, 11, 2) for ns in (5, 15)]
    sols = solve_points([d for d, _ in points], [c for _, c in points], CSET)
    evals = max(max(s.cut.iterations, s.cut_cr.iterations, s.pol.iterations)
                for s in sols)
    assert len(points) == 22 and evals >= 3
    assert len(calls) <= 3 * evals + 2
    assert max(calls) >= 22 * 4         # the discrete-rate edges of all points
