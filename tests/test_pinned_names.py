"""The names the benchmark hooks by name still exist.

perfbench/tracer.py rebinds module attributes and skips a name that no
longer exists, and perfbench/freeze.py imports cli._build_point, so a
deleted or renamed name would only make a layer read zero. Each name here
must stay until the benchmark stops looking it up.
"""

import pytest

import crlink.cli as cli
import crlink.fading as fading
import crlink.mud as mud
import crlink.numerics as numerics
import crlink.oracle as oracle
import crlink.power as power
import crlink.sweep as sweep

POLICIES = ("solve_cutoff", "solve_cutoff_cr")
METRICS = ("capacity", "spectral_efficiency_cr")

PINNED = (
    [(cli, "_build_point"), (sweep, "evaluate_point"), (sweep, "render_csv"),
     (mud, "mud_pdf"), (mud, "mud_cdf"), (mud, "mud_sample"),
     (fading, "cdf_direct"), (fading, "cdf_ratio"),
     (numerics, "integrate"), (power, "solve_decreasing"),
     (sweep, "solve_dr_policy"), (sweep, "spectral_efficiency_dr"),
     (oracle, "mc_capacity")]
    + [(caller, name) for caller in (sweep, cli)
       for name in POLICIES + METRICS])


@pytest.mark.parametrize("module,name", PINNED,
                         ids=[f"{m.__name__}.{n}" for m, n in PINNED])
def test_pinned_name_exists(module, name):
    assert callable(getattr(module, name, None))


def test_fading_spec_has_a_shape():
    assert fading.FadingSpec(1.0, 2.5).shape == 2.5
