"""Regenerate data/reference.json from the crlink source tree next to it.

The table freezes, at full double precision, the analytic columns of both
sweep workloads and the analytic side of every ``crlink validate``
estimate. It was made once and must not be regenerated to make a change
pass: a change that is meant to move these numbers says so and redefines
the benchmark. Run from the repository root:

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from crlink.cli import _VALIDATE_POINTS, _build_point  # noqa: E402
from crlink.metrics import (capacity, spectral_efficiency_cr,  # noqa: E402
                            spectral_efficiency_dr)
from crlink.power import (ConstellationSet, solve_cutoff,  # noqa: E402
                          solve_cutoff_cr, solve_dr_policy)
from crlink.sweep import load_config, run_sweep  # noqa: E402

from checks import SWEEP_COLUMNS  # noqa: E402
from env import source_id  # noqa: E402

SWEEPS = ("ss_fig4", "osa_users")


def sweep_reference(name: str):
    res = run_sweep(load_config(str(HERE / "configs" / f"{name}.cfg")))
    rows = []
    for r in res.rows:
        if r.error:
            raise SystemExit(f"{name}: point {r.axis_value, r.ns, r.m} failed: {r.error}")
        rows.append({"axis": r.axis_value, "ns": r.ns, "m": r.m,
                     **{c: getattr(r, c) for c in SWEEP_COLUMNS}})
    return rows


def validate_reference():
    """The analytic numbers ``crlink validate`` prints, in its order."""
    cset = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
    rows = []
    for mode, m, ns, p_db, q_db in _VALIDATE_POINTS:
        dist, constraint = _build_point(mode, m, ns, p_db, q_db)
        label = f"{mode} m={m:g} ns={ns} p={p_db:g}" + (
            f" q={q_db:g}" if q_db is not None else "")
        cut = solve_cutoff(dist, constraint)
        cut_cr = solve_cutoff_cr(dist, constraint, cset.k)
        pol = solve_dr_policy(dist, constraint, cset)
        for metric, value in (
                ("capacity", capacity(dist, cut).value),
                ("se_cr", spectral_efficiency_cr(dist, cut_cr, cset.k).value),
                ("se_dr", spectral_efficiency_dr(dist, pol, cset).value),
                ("power", constraint.budget_ratio),
                ("power_dr", constraint.budget_ratio)):
            rows.append({"point": label, "metric": metric, "analytic": value})
    return rows


def main() -> None:
    table = {"source": source_id(ROOT),
             **{name: sweep_reference(name) for name in SWEEPS},
             "oracle": validate_reference()}
    out = HERE / "data" / "reference.json"
    out.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
