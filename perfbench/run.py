"""crlink benchmark: one workload per run, checked outputs, one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload ss_fig4 --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each is here):

* ``ss_fig4``   ``crlink sweep`` on configs/fig4.cfg (copied to
  perfbench/configs/), ratio link, 44 points;
* ``osa_users`` ``crlink sweep`` over 1..20 users, direct link, m in
  {0.5, 1.5, 2.5}, 60 points;
* ``oracle``    ``crlink validate`` with its defaults, 6 points x 5
  estimates of 1e6 samples.

The seed feeds the sweep config ``seed`` and picks the ``validate --seed``
(workloads.ORACLE_SEEDS). Each run starts one worker process that repeats
the whole workload, single-process, until ``--seconds`` have passed, and
checks every pass against data/reference.json (checks.py).

``--trace 0`` prints the end-to-end metrics. Their times are at the
reference machine speed of calibrate.py, which cancels the drifting speed
of a shared machine; the report prints the raw times beside them.

* ``wall_s``         median over passes of the time for the whole workload;
* ``point_ms_p50``   median per-point latency; each point's latency is its
  median over passes (for ``oracle`` a point is one validate point);
* ``point_ms_tail``  the highest whole percentile of those with at least
  ten points beyond it (the maximum when there are ten points or fewer);
* ``setup_s``        median over ten processes of import plus config load;
* ``peak_rss_mb``    peak resident memory of the worker process.

Failed over attempted operations (``fail_frac``) is printed in the report
and carried by the ``attempted`` and ``failed`` fields of the JSON line.

``--trace 1`` runs one untraced pass, then traced passes (tracer.py), then
the layer probes (probes.py), and prints the per-layer metrics, the tracing
overhead, and where the spans were written.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
SETUP_PROBES = 10

sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_S, normalize  # noqa: E402
from checks import (Tally, check_sweep_csv, check_validate_output,  # noqa: E402
                    sweep_errors)
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("point_ms_p50", "ms"), ("point_ms_tail", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

KERNELS = ("fading.cdf_ratio", "fading.cdf_direct.int", "fading.cdf_direct.frac")

PER_LAYER = (
    ("numerics.integrate_calls", "count"), ("numerics.panels", "count"),
    ("numerics.self_s", "s"), ("numerics.solver_calls", "count"),
    ("numerics.solver_iters", "count"),
    ("power.solve_cap_s", "s"), ("power.solve_cr_s", "s"),
    ("power.solve_dr_s", "s"), ("power.iters_cap", "count"),
    ("power.iters_cr", "count"), ("power.iters_dr", "count"),
    ("power.residual_max", "budget"),
    ("metrics.rate_s", "s"), ("metrics.dr_s", "s"),
    ("metrics.quad_err_max", "bit/s/Hz"),
    ("mud.pdf_elems", "count"), ("mud.pdf_s", "s"),
    ("mud.cdf_elems", "count"), ("mud.cdf_s", "s"),
    ("fading.cdf_ratio.ns_per_elem", "ns"), ("fading.cdf_ratio.elems", "count"),
    ("fading.cdf_direct.int.ns_per_elem", "ns"),
    ("fading.cdf_direct.frac.ns_per_elem", "ns"),
    ("specfun.reg_lower_gamma_calls", "count"),
    ("mud.sample_draws", "count"), ("mud.sample_s", "s"),
    ("oracle.estimates", "count"), ("oracle.draws_per_s", "1/s"),
    ("oracle.s", "s"),
    ("sweep.points", "count"), ("sweep.errors", "count"),
    ("sweep.render_s", "s"),
) + tuple((f"{k}.{kind}", unit) for k in KERNELS for kind, unit in (
    ("panel_ns_per_elem", "ns"), ("batch_ns_per_elem", "ns"),
    ("panel_over_batch", "x"))) + (("trace.overhead_x", "x"),)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it;
    100 (the maximum) when n <= 10."""
    return 100 if n <= 10 else math.floor(100 * (n - 10) / n)


def percentile(values, q: int) -> float:
    """Nearest-rank percentile: the smallest sample with q% at or below."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def point_latencies(per_pass) -> list:
    """Each point's median latency over the passes."""
    return [statistics.median(v) for v in zip(*per_pass)]


def check_passes(workload: str, passes, reference) -> Tally:
    tally = Tally()
    for p in passes:
        if WORKLOADS[workload]["kind"] == "sweep":
            t = check_sweep_csv(p["output"], reference[workload])
        else:
            t = check_validate_output(p["output"], reference["oracle"])
        if p["rc"] != 0:
            t.problems.append(f"exit code {p['rc']}")
        tally.add(t)
    return tally


def layer_values(layers: dict, probes: dict, errors: int):
    """Per-layer metrics of one traced pass, and which came from a probe
    because the workload does not reach that layer."""
    g = layers.get
    stand = probes["stand_in"]
    kernel = probes["kernel"]
    from_probe = []

    def or_probe(name, value, reached):
        if reached:
            return value
        from_probe.append(name)
        return stand[name]

    vals = {
        "numerics.integrate_calls": g("numerics.integrate.calls", 0),
        "numerics.panels": g("numerics.panel.calls", 0),
        "numerics.self_s": g("numerics.self_s", 0.0),
        "numerics.solver_calls": g("numerics.solve.calls", 0),
        "numerics.solver_iters": g("numerics.solver_iters", 0),
        "power.residual_max": g("power.residual_max", 0.0),
        "metrics.rate_s": g("metrics.rate", 0.0),
        "metrics.dr_s": g("metrics.dr", 0.0),
        "metrics.quad_err_max": g("metrics.quad_err_max", 0.0),
        "specfun.reg_lower_gamma_calls": g("specfun.reg_lower_gamma_calls", 0),
        "sweep.points": g("sweep.point.calls", 0),
        "sweep.errors": errors,
    }
    for tag in ("cap", "cr", "dr"):
        vals[f"power.solve_{tag}_s"] = g(f"power.solve_{tag}", 0.0)
        vals[f"power.iters_{tag}"] = g(f"power.iters_{tag}", 0)
    for law in ("pdf", "cdf"):
        vals[f"mud.{law}_elems"] = g(f"mud.{law}_elems", 0)
        vals[f"mud.{law}_s"] = g(f"mud.{law}", 0.0)
    for k in KERNELS:
        elems = g(f"{k}.elems", 0)
        if k == "fading.cdf_ratio":
            vals[f"{k}.elems"] = elems
        if elems:
            vals[f"{k}.ns_per_elem"] = g(k) * 1e9 / elems
        else:
            vals[f"{k}.ns_per_elem"] = kernel[f"{k}.panel_ns_per_elem"]
            from_probe.append(f"{k}.ns_per_elem")
        for kind in ("panel_ns_per_elem", "batch_ns_per_elem", "panel_over_batch"):
            vals[f"{k}.{kind}"] = kernel[f"{k}.{kind}"]
    draws = g("mud.sample_draws", 0)
    estimates = g("oracle.estimates", 0)
    vals["mud.sample_draws"] = draws
    vals["mud.sample_s"] = or_probe("mud.sample_s", g("mud.sample", 0.0), draws)
    vals["oracle.estimates"] = estimates
    vals["oracle.s"] = or_probe("oracle.s", g("oracle.estimate", 0.0), estimates)
    vals["oracle.draws_per_s"] = or_probe(
        "oracle.draws_per_s", draws / vals["oracle.s"], estimates)
    vals["sweep.render_s"] = or_probe("sweep.render_s", g("sweep.render", 0.0),
                                      vals["sweep.points"])
    return vals, from_probe


def run_worker(args, extra, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "crlink" / "__init__.py").is_file():
        print(f"crlink sources not found under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "data" / "reference.json").read_text())

    setups = []
    if not args.trace:
        setups = [run_worker(args, ["--setup-only"], deadline)
                  for _ in range(SETUP_PROBES)]
    res = run_worker(args, [], deadline)

    passes = res["passes"]
    tally = check_passes(args.workload, passes, reference)
    env = res["env"]
    print(f"crlink benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"checks: {tally.failed} failed of {tally.attempted} attempted "
          f"(fail_frac {tally.fail_frac:.4g}); largest "
          f"deviation from the reference {tally.max_dev:.3g} relative")
    for problem in tally.problems[:20]:
        print(f"  FAIL {problem}")

    if args.trace:
        metrics, notes = traced_metrics(args.workload, res, passes)
    else:
        metrics, notes = end_to_end_metrics(args.workload, res, passes, setups)
    units = dict(END_TO_END if not args.trace else PER_LAYER)
    for name, value in metrics.items():
        print(f"{name:<40}{value:>16.6g} {units[name]:<9}{notes.get(name, '')}")
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def end_to_end_metrics(workload, res, passes, setups):
    """Times at the reference machine speed (calibrate.py); the notes give
    the raw medians beside them."""
    kind = WORKLOADS[workload]["calibration"]
    walls, per_pass = zip(*(normalize(kind, p["wall_s"], p["point_ms"],
                                      p["kernel_s"]) for p in passes))
    lat = point_latencies(per_pass)
    raw_lat = point_latencies(p["point_ms"] for p in passes)
    q = tail_percentile(len(lat))
    ref = REFERENCE_S["overhead"]
    setup = [s["setup_s"] * ref / s["setup_kernel_s"] for s in setups]
    metrics = {
        "wall_s": statistics.median(walls),
        "point_ms_p50": statistics.median(lat),
        "point_ms_tail": percentile(lat, q),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    beyond = len(lat) - math.ceil(q / 100 * len(lat))
    kernel_ms = 1e3 * statistics.median(k for p in passes for k in p["kernel_s"])
    notes = {
        "wall_s": f"median of {len(passes)} passes; raw "
                  f"{statistics.median(p['wall_s'] for p in passes):.4g} s, "
                  f"{kind} kernel {kernel_ms:.4g} ms (reference "
                  f"{1e3 * REFERENCE_S[kind]:g})",
        "point_ms_p50": f"n={len(lat)} points, each the median of "
                        f"{len(passes)} passes; raw "
                        f"{statistics.median(raw_lat):.4g} ms",
        "point_ms_tail": (f"p{q}, n={len(lat)}, {beyond} points beyond"
                          if q < 100 else
                          f"max, n={len(lat)} (ten points or fewer)")
                         + f"; raw {percentile(raw_lat, q):.4g} ms",
        "setup_s": f"median of {len(setup)} processes; raw "
                   f"{statistics.median(s['setup_s'] for s in setups):.4g} s",
        "peak_rss_mb": "worker process",
    }
    return metrics, notes


def traced_metrics(workload, res, passes):
    per_pass = []
    from_probe = []
    sweep = WORKLOADS[workload]["kind"] == "sweep"
    for p, layers in zip(passes, res["layers"]):
        errors = sweep_errors(p["output"]) if sweep else 0
        vals, from_probe = layer_values(layers, res["probes"], errors)
        per_pass.append(vals)
    metrics = {name: statistics.median(v[name] for v in per_pass)
               for name, _ in PER_LAYER if name != "trace.overhead_x"}
    metrics["trace.overhead_x"] = (statistics.median(p["wall_s"] for p in passes)
                                   / res["untraced_wall_s"])
    notes = {name: "(probe: layer not reached by this workload)"
             for name in from_probe}
    notes["trace.overhead_x"] = (f"traced wall over untraced wall; spans in "
                                 f"{res['spans_file']}")
    return metrics, notes


if __name__ == "__main__":
    sys.exit(main())
