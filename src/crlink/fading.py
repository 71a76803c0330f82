"""Single-user SNR distributions for the two cognitive-radio link types.

Direct link: received SNR of the secondary link. Nakagami-m fading gives a
Gamma law with shape m and mean equal to the configured mean SNR; Rayleigh
fading is m = 1, with no formula of its own. At every m its CDF and
survival are the two selections from one incomplete-gamma kernel,
specfun._gamma_halves.

Ratio link (spectrum sharing): the effective SNR is a scale factor times the
ratio of the secondary and interference channel gains. With both gains
Gamma(m) the unit-scale ratio follows a Beta-prime(m,m) law,

    f(x) = x^{m-1} / (B(m,m) (1+x)^{2m}),
    F(x) = I_{x/(1+x)}(m, m), the regularized incomplete beta,

and the configured mean_snr acts as the scale s: pdf_s(x) = pdf(x/s)/s.
All evaluators accept scalars or numpy arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .specfun import _gamma_halves, _reg_beta, ln_beta


class LinkKind(enum.Enum):
    DIRECT = "direct"      # secondary-link SNR (transmit-power constraint)
    RATIO = "ratio"        # gain-ratio SNR (interference-power constraint)


@dataclass(frozen=True)
class FadingSpec:
    """Linear-scale mean SNR and Nakagami shape factor m (m = 1 is Rayleigh).

    For the ratio link, mean_snr is the scale s applied to the unit gain
    ratio (the constants of the interference geometry folded into one
    number); the ratio variable itself has no finite mean for m <= 1.
    """

    mean_snr: float
    m: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean_snr) or self.mean_snr <= 0.0:
            raise ValueError(f"mean_snr must be finite and > 0, got {self.mean_snr}")
        if not math.isfinite(self.m):
            raise ValueError(f"shape factor must be finite, got {self.m}")
        if self.m < 0.5:
            raise ValueError(f"Nakagami shape factor must be >= 0.5, got {self.m}")

    @property
    def shape(self) -> float:
        """Gamma shape of the SNR law, the Nakagami m."""
        return self.m


def nakagami(m: float, mean_snr: float) -> FadingSpec:
    return FadingSpec(mean_snr, m)


def _prepare(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0.0):              # NaN fails the comparison too
        raise ValueError("SNR arguments must be numbers >= 0")
    return arr, np.isscalar(x) or arr.ndim == 0


def _finish(arr, scalar):
    return float(arr) if scalar else arr


def _cdf(halves):
    """The CDF from a link's halves (near, lower, scalar)."""
    near, lower, scalar = halves
    return _finish(np.where(lower, near, 1.0 - near), scalar)


def _sf(halves):
    """The survival from a link's halves (near, lower, scalar)."""
    near, lower, scalar = halves
    return _finish(np.where(lower, 1.0 - near, near), scalar)


def _density(arr, m: float, at_one: float):
    """Zeros holding a density's origin value (+inf, at_one or 0 as m is <, =
    or > 1) and its limit 0 at +inf, and the mask of (0, ∞) left to fill."""
    out = np.zeros_like(arr)
    if m <= 1.0:
        out[arr == 0.0] = np.inf if m < 1.0 else at_one
    return out, (arr > 0.0) & (arr < np.inf)


def pdf_direct(spec: FadingSpec, x):
    """Direct-link SNR density: Gamma(shape m, mean γ̄)."""
    arr, scalar = _prepare(x)
    m, g = spec.shape, spec.mean_snr
    out, inner = _density(arr, m, 1.0 / g)
    xp = arr[inner]
    out[inner] = np.exp(m * math.log(m / g) + (m - 1.0) * np.log(xp)
                        - m * xp / g - math.lgamma(m))
    return _finish(out, scalar)


def _direct_halves(spec: FadingSpec, x):
    """_gamma_halves at y = m·x/γ̄ and whether x is a scalar: near is
    P(m, y), the CDF, where lower holds, and Q(m, y) elsewhere."""
    arr, scalar = _prepare(x)
    m = spec.shape
    near, lower = _gamma_halves(m, m * arr / spec.mean_snr)
    return near, lower, scalar


def cdf_direct(spec: FadingSpec, x):
    """Direct-link SNR CDF: P(m, m·x/γ̄)."""
    return _cdf(_direct_halves(spec, x))


def sf_direct(spec: FadingSpec, x):
    """Direct-link SNR survival 1 − CDF = Q(m, m·x/γ̄)."""
    return _sf(_direct_halves(spec, x))


def pdf_ratio(spec: FadingSpec, x):
    """Gain-ratio SNR density: scaled Beta-prime(m,m).

    Unit scale: f(y) = y^{m-1} / (B(m,m) (1+y)^{2m}); the configured scale s
    enters as f_s(x) = f(x/s)/s.
    """
    arr, scalar = _prepare(x)
    m, s = spec.shape, spec.mean_snr
    y = arr / s
    out, inner = _density(y, m, 1.0 / s)
    yp = y[inner]
    out[inner] = np.exp((m - 1.0) * np.log(yp) - 2.0 * m * np.log1p(yp)
                        - ln_beta(m, m)) / s
    return _finish(out, scalar)


def _ratio_halves(spec: FadingSpec, x):
    """Unit-scale ratio CDF at v = min(y, 1/y), y = x/s, and the mask y <= 1.

    F(v) = I_w(m, m) at w = v/(1+v) <= 1/2, where its continued fraction
    converges in a few terms at every m. The exact reflection F(y) =
    1 − F(1/y) (exchangeability of the two gains) covers y > 1, so F(v) is
    the CDF below the unit point and the survival above it.
    """
    arr, scalar = _prepare(x)
    y = arr / spec.mean_snr
    lower = y <= 1.0
    v = np.where(lower, y, 1.0 / np.where(lower, 1.0, y))
    near = _reg_beta(spec.shape, (v / (1.0 + v)).ravel()).reshape(v.shape)
    return near, lower, scalar


def cdf_ratio(spec: FadingSpec, x):
    """Gain-ratio SNR CDF I_{y/(1+y)}(m, m) at y = x/s."""
    return _cdf(_ratio_halves(spec, x))


def sf_ratio(spec: FadingSpec, x):
    """Gain-ratio SNR survival 1 − CDF; above the unit point it is I_w(m, m)
    itself, so the power-law tail keeps full relative precision."""
    return _sf(_ratio_halves(spec, x))


@dataclass(frozen=True)
class SnrDistribution:
    """PDF/CDF pair for one link's effective SNR, support [0, ∞)."""

    spec: FadingSpec
    link: LinkKind

    def pdf(self, x):
        if self.link is LinkKind.DIRECT:
            return pdf_direct(self.spec, x)
        return pdf_ratio(self.spec, x)

    def cdf(self, x):
        if self.link is LinkKind.DIRECT:
            return cdf_direct(self.spec, x)
        return cdf_ratio(self.spec, x)

    def sf(self, x):
        """Survival function 1 − CDF, accurate in the upper tail."""
        if self.link is LinkKind.DIRECT:
            return sf_direct(self.spec, x)
        return sf_ratio(self.spec, x)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw effective-SNR samples.

        Direct: Gamma(shape m, mean γ̄). Ratio: s · g_s/g_p with independent
        Gamma(m) gains; zero denominators (floating-point underflow) are
        redrawn. The draws are those of _best_draws for one user.
        """
        shape = tuple(np.atleast_1d(size))
        return _best_draws(self, rng, 1, math.prod(shape)).reshape(shape)


def _best_draws(dist: SnrDistribution, rng: np.random.Generator, users: int,
                n: int) -> np.ndarray:
    """n draws of the largest of `users` i.i.d. effective SNRs of dist.

    rng gives the values rng.gamma(m, θ, (users, n)) would, in the same
    order: the direct link's draws at θ = γ̄/m; for the ratio link the
    numerators, then the denominators at θ = 1, then the redraws of zero
    denominators in row-major order until none is left. The direct link
    scales the maximum, which equals the maximum of the scaled draws
    because rounding is monotone. The ratio link holds one (users, n)
    array and draws the denominators one user row at a time. At m = 1 it
    draws from rng.standard_exponential, numpy's shape-1 gamma, bit for bit.
    """
    m = dist.spec.shape
    draw = (rng.standard_exponential if m == 1.0
            else partial(rng.standard_gamma, m))
    if dist.link is LinkKind.DIRECT:
        best = draw((users, n)).max(axis=0)
        return np.multiply(best, dist.spec.mean_snr / m, out=best)
    ratio = draw((users, n))
    np.multiply(ratio, dist.spec.mean_snr, out=ratio)
    den = np.empty(n)
    zeros = []
    for i, row in enumerate(ratio):
        draw(out=den)
        hit = np.flatnonzero(den == 0.0)
        if hit.size:
            zeros.append(i * n + hit)
            den[hit] = 1.0          # keeps s·num there until the redraw
        np.divide(row, den, out=row)
    flat = ratio.reshape(-1)
    bad = np.concatenate(zeros) if zeros else np.empty(0, np.intp)
    while bad.size:
        fresh = draw(bad.size)
        drawn = fresh != 0.0
        flat[bad[drawn]] /= fresh[drawn]
        bad = bad[~drawn]
    return ratio.max(axis=0)
