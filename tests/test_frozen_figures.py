"""The four shipped sweeps still give the figures frozen in tests/data.

tests/data/fig1..4.csv were written by `crlink sweep configs/figN.cfg`
before the survival-table solver replaced the per-call adaptive integrals.
A fresh sweep must render them byte for byte, or else agree with every
analytic cell at 1e-8 relative. The fresh values are compared at full
precision, so the 9-digit rounding of the frozen cells (at most 5e-9
relative) leaves room for a last-digit drift and no more.

tests/data/validate_seed{3,7,11}.txt were written by `crlink validate
--samples 100000 --seed s` before the oracle reduced its batches in chunks.
The printed Monte Carlo estimates must come out byte for byte.
"""

import csv
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from crlink.cli import main
from crlink.sweep import load_config, render_csv, run_sweep

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
ANALYTIC = ("capacity", "se_cr", "se_dr", "gamma0_cap", "gamma0_cr",
            "gamma_star_dr")
REL = 1e-8


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_figure_matches_frozen_csv(name):
    frozen = (DATA / f"{name}.csv").read_text()
    res = run_sweep(load_config(str(ROOT / "configs" / f"{name}.cfg")))
    if render_csv(res) == frozen:
        return
    rows = list(csv.DictReader(io.StringIO(frozen)))
    assert len(rows) == len(res.rows)
    for ref, row in zip(rows, res.rows):
        assert (float(ref["axis"]), int(ref["ns"]), float(ref["m"])) == (
            row.axis_value, row.ns, row.m)
        assert row.error == ref["error"] == ""
        for col in ANALYTIC:
            want, got = float(ref[col]), getattr(row, col)
            assert abs(got - want) <= REL * abs(want), (name, col, ref, got)


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_validate_matches_frozen_output(seed):
    frozen = (DATA / f"validate_seed{seed}.txt").read_text()
    with redirect_stdout(io.StringIO()) as out:
        rc = main(["validate", "--samples", "100000", "--seed", str(seed)])
    assert rc == 0
    assert out.getvalue() == frozen
