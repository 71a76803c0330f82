"""Property tests over random operating points (hypothesis).

Every example solves whole points, so the example counts are small and
the draws derandomized: the file stays reproducible and runs in about a
second.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from crlink.power import ConstellationSet, solve_cutoff, solve_cutoff_cr
from crlink.sweep import build_point, solve_point

CSET = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True,
                    database=None)

modes = st.sampled_from(["osa", "ss"])
shapes = st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0, 7.3])
users = st.integers(1, 40)
p_dbs = st.floats(-10.0, 30.0)
q_dbs = st.floats(-15.0, 15.0)


def _solve(mode, m, ns, p_db, q_db):
    dist, constraint = build_point(mode, m, ns, p_db, q_db)
    return dist, constraint, solve_point(dist, constraint, CSET)


@SETTINGS
@given(modes, shapes, users, p_dbs, q_dbs)
def test_metrics_are_ordered_and_regions_partition(mode, m, ns, p_db, q_db):
    dist, constraint, sol = _solve(mode, m, ns, p_db, q_db)
    assert sol.capacity >= sol.se_cr >= sol.se_dr >= 0.0
    # the regions and the outage below the first edge share out all mass
    outage = float(dist.cdf(sol.pol.boundaries[0]))
    assert math.isclose(sum(sol.pol.region_probs) + outage, 1.0,
                        rel_tol=0.0, abs_tol=1e-9)
    # a unit power-loss factor turns the continuous-rate cutoff into the
    # capacity cutoff
    assert (solve_cutoff_cr(dist, constraint, 1.0).gamma0
            == solve_cutoff(dist, constraint).gamma0)


@SETTINGS
@given(modes, shapes, users, p_dbs, q_dbs, st.floats(0.5, 10.0))
def test_metrics_grow_with_the_budget(mode, m, ns, p_db, q_db, step):
    # osa: a larger mean SNR at the unit budget; ss: a larger Q/P
    low = _solve(mode, m, ns, p_db, q_db)[2]
    high = _solve(mode, m, ns, p_db + step if mode == "osa" else p_db,
                  q_db + step if mode == "ss" else q_db)[2]
    assert high.capacity > low.capacity
    assert high.se_cr > low.se_cr
    assert high.se_dr >= low.se_dr


@SETTINGS
@given(modes, shapes, users, st.integers(1, 40), p_dbs, q_dbs)
def test_metrics_grow_with_the_user_count(mode, m, ns, more, p_db, q_db):
    few = _solve(mode, m, ns, p_db, q_db)[2]
    many = _solve(mode, m, ns + more, p_db, q_db)[2]
    assert many.capacity > few.capacity
    assert many.se_cr > few.se_cr
    assert many.se_dr >= few.se_dr
