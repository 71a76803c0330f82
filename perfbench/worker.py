"""Run one workload in this process and print its raw results as JSON.

Started by run.py, one process per benchmark run, so peak memory and
set-up belong to one workload. ``--setup-only`` measures set-up (import
plus config load), times the calibration kernel and exits.

Untraced runs time the calibration kernel (calibrate.py) before each pass
and after every point, outside the point's time and subtracted from the
pass's time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from checks import parse_validate
from workloads import WORKLOADS, oracle_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_CALIBRATIONS = 3


def setup(workload: str, seed: int):
    """Import plus config load; returns the argv of one pass and the CSV it
    writes (None for validate)."""
    sys.path.insert(0, str(ROOT / "src"))
    import crlink.cli
    if WORKLOADS[workload]["kind"] == "sweep":
        cfg = str(HERE / "configs" / f"{workload}.cfg")
        crlink.sweep.load_config(cfg, {"seed": seed})
        out = str(WORK / f"{workload}-seed{seed}.csv")
        return ["sweep", cfg, "--set", f"seed={seed}", "-o", out,
                "--workers", "1"], out
    argv = ["validate", "--seed", str(oracle_seed(seed))]
    crlink.cli.build_parser().parse_args(argv)
    return argv, None


class ValidateOutput(io.StringIO):
    """Captured stdout of validate that records its points as they finish.

    validate prints a point's estimates once the point is done, so a point
    ends when its first estimate line is written; the next point starts
    after on_point (the calibration) returns."""

    def __init__(self, on_point=None):
        super().__init__()
        self.on_point = on_point
        self.points = []            # (start, end) in perf_counter_ns
        self._label = None
        self._start = time.perf_counter_ns()

    def write(self, s):
        now = time.perf_counter_ns()
        for label, _ in parse_validate(s):
            if label != self._label:
                self._label = label
                self.points.append((self._start, now))
                if self.on_point is not None:
                    self.on_point()
                self._start = time.perf_counter_ns()
        return super().write(s)


def one_pass(argv, out_path, on_point=None):
    """Run the entry point once: exit code, wall time, output text and, for
    validate, the point intervals."""
    import crlink.cli
    buf = ValidateOutput(on_point)
    t = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = crlink.cli.main(argv)
    wall = time.perf_counter() - t
    if out_path:
        return rc, wall, Path(out_path).read_text(), None
    return rc, wall, buf.getvalue(), buf.points


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    WORK.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    argv, out_path = setup(args.workload, args.seed)
    result = {"setup_s": time.perf_counter() - t0}

    from calibrate import Calibrator
    if args.setup_only:
        calib = Calibrator("overhead")
        for _ in range(SETUP_CALIBRATIONS):
            calib.sample()
        readings = calib.take()[0]
        result["setup_kernel_s"] = sum(readings) / len(readings)
    else:
        calib = (None if args.trace else
                 Calibrator(WORKLOADS[args.workload]["calibration"]))
        result.update(run_passes(args, argv, out_path, calib))
    print(json.dumps(result))
    return 0


def run_passes(args, argv, out_path, calib) -> dict:
    from env import run_env
    from tracer import Tracer

    tracer = Tracer(layers=bool(args.trace))
    on_point = calib.sample if calib else None
    passes = []
    if args.trace:
        # one untraced pass first: the base of the tracing overhead
        untraced_wall = one_pass(argv, out_path)[1]
    tracer.install(after_point=on_point)
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < args.seconds:
            if calib:
                calib.sample()      # the reading before the first point
                before = calib.take()[0]
            tracer.begin_pass(len(passes))
            try:
                rc, wall, text, points = one_pass(argv, out_path, on_point)
            finally:
                tracer.end_pass()
            if points:
                tracer.add_points("oracle.point", points)
            p = {"rc": rc, "wall_s": wall, "output": text}
            if calib:
                after, spent = calib.take()
                p["kernel_s"] = before + after
                p["wall_s"] -= spent
            passes.append(p)
    finally:
        tracer.uninstall()
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for i, p in enumerate(passes):
        p["point_ms"] = tracer.point_ms(i)
    out = {"passes": passes, "peak_rss_mb": peak_rss_mb,
           "env": run_env(ROOT, args.seed)}
    if args.trace:
        from probes import run_probes
        out["untraced_wall_s"] = untraced_wall
        out["layers"] = [tracer.pass_layers(i) for i in range(len(passes))]
        out["probes"] = run_probes()
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans, {"workload": args.workload, **out["env"]})
        out["spans_file"] = str(spans.relative_to(ROOT))
    return out


if __name__ == "__main__":
    sys.exit(main())
