"""The benchmark's layer trace still sees every layer it reports.

perfbench/tracer.py hooks crlink by rebinding module attributes and skips a
name that no longer exists, so a rename or deletion in crlink would make a
layer read zero instead of failing. This runs one sweep point and one
validate pass under the tracer and asserts each layer it reports counted
something. The solvers read the best-of-L law from its survival table, so
the pass also evaluates the density once at a non-integer direct-link
point, which still runs through the hooked fading.cdf_direct.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import crlink.cli as cli
import crlink.sweep as sweep

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402


def test_traced_layers_are_nonzero():
    tracer = Tracer(layers=True)
    tracer.install()
    try:
        tracer.begin_pass(0)
        cfg = sweep.SweepConfig(mode="osa", axis="p_av_db",
                                axis_range=(10.0, 10.0, 1.0), num_users=(5,),
                                m_values=(1.5,))
        row = sweep.evaluate_point(cfg, 10.0, 5, 1.5)
        dist, _ = sweep.build_point("osa", 1.5, 5, 10.0, None)
        dist.pdf(3.0)
        with redirect_stdout(io.StringIO()):
            rc = cli.main(["validate", "--samples", "100000"])
        tracer.end_pass()
    finally:
        tracer.uninstall()
    assert row.error == "" and rc == 0
    layers = tracer.pass_layers(0)
    for key in ("power.iters_cap", "power.iters_dr", "numerics.panel.calls",
                "fading.cdf_direct.frac.elems", "mud.sample_draws"):
        assert layers.get(key, 0) > 0, key
