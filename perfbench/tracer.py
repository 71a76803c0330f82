"""Outside-in tracing of crlink by rebinding module attributes.

crlink modules call each other through names looked up at call time in the
calling module (``crlink.power.integrate``, ``crlink.mud.mud_pdf``, ...).
``Tracer.install`` replaces those names with timing wrappers and
``uninstall`` puts the originals back; nothing under ``src/`` changes. A
name that no longer exists is skipped, so its layer reads zero instead of
the run failing.

Spans (id, name, start, end, parent, point, pass) are kept in compact
arrays and written once, at exit. A point span brackets one grid point
(sweeps) or one validation point (``crlink validate``); every span inside
it carries its point id. Point spans are recorded in every run, as they
give the per-point latency; the layer wrappers only in a traced run.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

NO_SPAN = -1
POINT_SPANS = ("sweep.point", "oracle.point")


def _is_integer_shape(m: float) -> bool:
    # the vectorized branch of crlink.fading.cdf_direct
    return m == round(m) and m <= 60


class Tracer:
    def __init__(self, layers: bool):
        self.layers = layers
        self.names = []
        self._ids = {}
        self.cols = {k: array("q") for k in
                     ("id", "name", "start", "end", "parent", "point", "pass")}
        self._next = 0
        self._stack = [NO_SPAN]
        self._point = NO_SPAN
        self._pass = -1
        self._pass_span = None
        self._pass_first = 0         # index of the pass's first span record
        self.counts = []            # one Counter per pass
        self._saved = []            # (module, attribute, original)

    # -- spans -------------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, self._nid(name), parent, perf_counter_ns()

    def _close(self, token) -> None:
        end = perf_counter_ns()
        sid, nid, parent, start = token
        self._stack.pop()
        self._record(sid, nid, start, end, parent, self._point)

    def _record(self, sid, nid, start, end, parent, point) -> None:
        c = self.cols
        c["id"].append(sid)
        c["name"].append(nid)
        c["start"].append(start)
        c["end"].append(end)
        c["parent"].append(parent)
        c["point"].append(point)
        c["pass"].append(self._pass)

    def begin_pass(self, index: int) -> None:
        self._pass = index
        self.counts.append(Counter())
        self._pass_first = len(self.cols["id"])
        self._pass_span = self._open("workload.pass")

    def end_pass(self) -> None:
        self._close(self._pass_span)

    def add_points(self, name: str, intervals) -> None:
        """Point spans for the pass just ended, from (start, end) times in
        ns. Spans of the pass that start inside a point take its id."""
        c = self.cols
        pass_id = c["id"][-1]
        first = self._pass_first
        ids = []
        for start, end in intervals:
            ids.append(self._next)
            self._record(self._next, self._nid(name), start, end, pass_id,
                         self._next)
            self._next += 1
        starts = [start for start, _ in intervals]
        for i in range(first, len(c["id"]) - len(ids)):
            k = int(np.searchsorted(starts, c["start"][i], side="right")) - 1
            if k >= 0 and c["start"][i] < intervals[k][1]:
                c["point"][i] = ids[k]

    def count(self, key: str, n: float = 1) -> None:
        self.counts[-1][key] += n

    def peak(self, key: str, value: float) -> None:
        c = self.counts[-1]
        c[key] = max(c.get(key, 0.0), value)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name, after=None):
        """Time every call of fn as a span; after(args, result) may count."""
        def traced(*args, **kwargs):
            token = self._open(name(*args) if callable(name) else name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(token)
            if after is not None:
                after(args, res)
            return res
        return traced

    def _instrument(self, module, attr, make) -> None:
        """Replace module.attr by make(original), if the name exists."""
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _span(self, module, attr, name, after=None) -> None:
        self._instrument(module, attr, lambda f: self.wrap(f, name, after))

    def install(self, after_point=None) -> None:
        """after_point, if given, runs after each grid point, outside its
        span."""
        import crlink.sweep as sweep

        def point(evaluate):
            def evaluate_point(*args, **kwargs):
                token = self._open("sweep.point")
                self._point = token[0]
                try:
                    return evaluate(*args, **kwargs)
                finally:
                    self._close(token)
                    self._point = NO_SPAN
                    if after_point is not None:
                        after_point()
            return evaluate_point

        self._instrument(sweep, "evaluate_point", point)
        if self.layers:
            self._install_layers()

    def _install_layers(self) -> None:
        import crlink.cli as cli
        import crlink.fading as fading
        import crlink.mud as mud
        import crlink.numerics as numerics
        import crlink.oracle as oracle
        import crlink.power as power
        import crlink.sweep as sweep

        # numerics: one span per adaptive integration and per K15 panel
        def panels(integrate):
            def counted(fn, *args, **kwargs):
                def integrand(x):
                    token = self._open("numerics.panel")
                    try:
                        return fn(x)
                    finally:
                        self._close(token)
                return integrate(integrand, *args, **kwargs)
            return self.wrap(counted, "numerics.integrate")

        self._instrument(numerics, "integrate", panels)
        self._instrument(power, "integrate", panels)
        self._span(power, "solve_decreasing", "numerics.solve",
                   lambda args, res: self.count("numerics.solver_iters", res[2]))

        # power and metrics, at the names sweep and validate call
        def policy_done(tag):
            def done(args, res):
                self.count(f"power.iters_{tag}", res.iterations)
                self.peak("power.residual_max", abs(res.residual))
            return done

        def metric_done(args, res):
            self.peak("metrics.quad_err_max", res.quadrature_error_estimate)

        for caller in (sweep, cli):
            self._span(caller, "solve_cutoff", "power.solve_cap",
                       policy_done("cap"))
            self._span(caller, "solve_cutoff_cr", "power.solve_cr",
                       policy_done("cr"))
            self._span(caller, "solve_dr_policy", "power.solve_dr",
                       policy_done("dr"))
            self._span(caller, "capacity", "metrics.rate", metric_done)
            self._span(caller, "spectral_efficiency_cr", "metrics.rate",
                       metric_done)
            self._span(caller, "spectral_efficiency_dr", "metrics.dr")

        # mud: best-of-L law and sampler, element and draw counts
        def elems(key):
            return lambda args, res: self.count(key, np.size(args[1]))
        self._span(mud, "mud_pdf", "mud.pdf", elems("mud.pdf_elems"))
        self._span(mud, "mud_cdf", "mud.cdf", elems("mud.cdf_elems"))
        self._span(mud, "mud_sample", "mud.sample",
                   lambda args, res: self.count("mud.sample_draws", args[2]))

        # fading: base CDFs by link and shape class
        self._span(fading, "cdf_ratio", "fading.cdf_ratio",
                   elems("fading.cdf_ratio.elems"))

        def direct_name(spec, *_):
            cls = "int" if _is_integer_shape(spec.shape) else "frac"
            return f"fading.cdf_direct.{cls}"

        self._span(fading, "cdf_direct", direct_name, lambda args, res: self.count(
            direct_name(args[0]) + ".elems", np.size(args[1])))

        def calls(fn):
            def counted(*args, **kwargs):
                self.count("specfun.reg_lower_gamma_calls")
                return fn(*args, **kwargs)
            return counted
        self._instrument(fading, "reg_lower_gamma", calls)

        # oracle estimators, at the names validate and the metrics use
        for caller in (cli, oracle):
            for attr in ("mc_capacity", "mc_se_dr", "mc_power_check"):
                self._span(caller, attr, "oracle.estimate",
                           lambda args, res: self.count("oracle.estimates"))

        self._span(sweep, "render_csv", "sweep.render")

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {k: np.array(v, dtype=np.int64) for k, v in self.cols.items()}

    def point_ms(self, pass_index: int):
        """Latency of each point of one pass, in point order."""
        a = self.arrays()
        keep = a["pass"] == pass_index
        keep &= np.isin(a["name"], [self._ids.get(n, -2) for n in POINT_SPANS])
        order = np.argsort(a["start"][keep])
        return ((a["end"] - a["start"])[keep][order] / 1e6).tolist()

    def pass_layers(self, pass_index: int) -> dict:
        """Seconds and calls per span name, integrate's self time and the
        counters, for one pass."""
        a = self.arrays()
        keep = a["pass"] == pass_index
        dur = (a["end"] - a["start"])[keep] / 1e9
        names = a["name"][keep]
        calls = Counter(names.tolist())
        out = {}
        for n, i in self._ids.items():
            out[n] = float(dur[names == i].sum())
            out[f"{n}.calls"] = calls.get(i, 0)
        out["numerics.self_s"] = (out.get("numerics.integrate", 0.0)
                                  - out.get("numerics.panel", 0.0))
        out.update(self.counts[pass_index])
        return out

    def write(self, path, header: dict) -> None:
        """Spans as a compressed array file plus a JSON header beside it."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
        with open(str(path) + ".json", "w") as fh:
            json.dump({**header, "spans": len(self.cols["id"]),
                       "columns": list(self.cols), "names": self.names}, fh)
