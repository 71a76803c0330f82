"""Capacity and adaptive-modulation spectral efficiency of multi-user
cognitive-radio links over Rayleigh and Nakagami-m fading."""

__version__ = "0.1.0"

from .exceptions import ConvergenceError, NoSolutionError
from .fading import FadingSpec, LinkKind, SnrDistribution, nakagami
from .metrics import (MetricResult, capacity, spectral_efficiency_cr,
                      spectral_efficiency_dr)
from .mud import MudDistribution
from .power import (ConstellationSet, ConstraintSpec, CutoffSolution, DrPolicy,
                    power_loss_factor, solve_cutoff, solve_cutoff_cr,
                    solve_dr_policy)
from .specfun import exp_integral_e1, ln_beta
from .sweep import (SweepConfig, SweepResult, SweepRow, db_to_linear,
                    emit_csv, evaluate_point, load_config, run_sweep)

__all__ = [
    "ConstellationSet", "ConstraintSpec", "ConvergenceError",
    "CutoffSolution", "DrPolicy", "FadingSpec", "LinkKind", "McConfig",
    "McEstimate", "MetricResult", "MudDistribution", "NoSolutionError",
    "SnrDistribution", "SweepConfig", "SweepResult", "SweepRow", "capacity",
    "db_to_linear", "emit_csv", "evaluate_point", "exp_integral_e1",
    "ln_beta", "load_config", "mc_capacity", "nakagami", "power_loss_factor",
    "run_sweep", "solve_cutoff", "solve_cutoff_cr", "solve_dr_policy",
    "spectral_efficiency_cr", "spectral_efficiency_dr",
]


def __getattr__(name):
    """The oracle's names, imported on first use: a sweep without
    mc_validate never runs the oracle."""
    if name in ("McConfig", "McEstimate", "mc_capacity"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
