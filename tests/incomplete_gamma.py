"""The regularized incomplete gamma functions P and Q selected from
specfun._gamma_halves, as the direct-link CDF and survival select them."""

import numpy as np

from crlink.specfun import _gamma_halves


def upper_gamma_many(a, x):
    """Q(a, x) over an array."""
    near, lower = _gamma_halves(a, x)
    return np.where(lower, 1.0 - near, near)


def reg_upper_gamma(a: float, x: float) -> float:
    """Q(a, x) at one point."""
    return float(upper_gamma_many(a, x))


def reg_lower_gamma(a: float, x: float) -> float:
    """P(a, x) at one point."""
    near, lower = _gamma_halves(a, x)
    return float(np.where(lower, near, 1.0 - near))
