"""Fixed-size probes of single layers, run after the traced passes with the
original functions restored.

The kernel probe times the base CDFs on a 15-element array (one K15 panel,
the size quadrature calls them with) and on a 1e5-element array. Their
ratio says how much of the per-panel cost is call overhead rather than
arithmetic. The other probes time one unit of a layer that a workload may
not reach (a sampling batch, an estimate, a CSV render), so the per-layer
sheet has a measured figure for every layer on every workload.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

PANEL = 15
BATCH = 100_000
MC_BATCH = 200_000                  # one oracle batch (McConfig default)


def _seconds_per_call(call, budget_s: float = 0.3, blocks: int = 3) -> float:
    """Median over blocks of the mean call time; each block runs the call
    until budget_s/blocks has passed."""
    per_block = []
    for _ in range(blocks):
        n = 0
        t = time.perf_counter()
        while True:
            call()
            n += 1
            dt = time.perf_counter() - t
            if dt >= budget_s / blocks:
                break
        per_block.append(dt / n)
    return float(np.median(per_block))


def kernel_probe() -> dict:
    from crlink.fading import cdf_direct, cdf_ratio, nakagami

    kernels = {
        "fading.cdf_ratio": (cdf_ratio, nakagami(2.0, 10.0)),
        "fading.cdf_direct.int": (cdf_direct, nakagami(2.0, 10.0)),
        "fading.cdf_direct.frac": (cdf_direct, nakagami(1.5, 10.0)),
    }
    out = {}
    for name, (fn, spec) in kernels.items():
        costs = {}
        for label, n in (("panel", PANEL), ("batch", BATCH)):
            # both sides of the unit scale: series and reflected branches
            x = spec.mean_snr * np.logspace(-2.0, 2.0, n)
            costs[label] = _seconds_per_call(lambda: fn(spec, x)) * 1e9 / n
        out[f"{name}.panel_ns_per_elem"] = costs["panel"]
        out[f"{name}.batch_ns_per_elem"] = costs["batch"]
        out[f"{name}.panel_over_batch"] = costs["panel"] / costs["batch"]
    return out


def stand_in_probe() -> dict:
    from crlink.fading import LinkKind, SnrDistribution, nakagami
    from crlink.mud import MudDistribution, mud_sample
    from crlink.oracle import McConfig, mc_capacity
    from crlink.power import CutoffSolution
    from crlink.sweep import SweepResult, SweepRow, load_config, render_csv

    dist = MudDistribution(SnrDistribution(nakagami(2.0, 10.0),
                                           LinkKind.RATIO), 5)
    rng = np.random.Generator(np.random.PCG64(0))
    sample_s = _seconds_per_call(lambda: mud_sample(dist, rng, MC_BATCH))
    cut = CutoffSolution(gamma0=1.0, residual=0.0, iterations=0)
    cfg = McConfig(samples=MC_BATCH, seed=0)
    estimate_s = _seconds_per_call(lambda: mc_capacity(dist, cut, cfg))

    here = Path(__file__).resolve().parent
    ref = json.loads((here / "data" / "reference.json").read_text())
    rows = [SweepRow(axis_value=r["axis"], ns=r["ns"], m=r["m"],
                     **{k: v for k, v in r.items()
                        if k not in ("axis", "ns", "m")})
            for r in ref["ss_fig4"]]
    res = SweepResult(load_config(str(here / "configs" / "ss_fig4.cfg")),
                      rows)
    render_s = _seconds_per_call(lambda: render_csv(res))
    return {"mud.sample_s": sample_s,
            "oracle.s": estimate_s, "oracle.draws_per_s": MC_BATCH / estimate_s,
            "sweep.render_s": render_s}


def run_probes() -> dict:
    return {"kernel": kernel_probe(), "stand_in": stand_in_probe()}
