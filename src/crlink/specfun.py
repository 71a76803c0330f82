"""Self-contained special functions backing the fading laws and capacity integrals.

The incomplete gamma (a series and a continued fraction), the incomplete
beta I_w(m, m) (one continued fraction), E1 and ln B, all pure functions
safe to call concurrently. Every series and continued fraction stops at
relative tolerance REL_TOL, element by element over an array, or raises
ConvergenceError after MAX_TERMS terms; both are ample for double precision.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConvergenceError

EULER_GAMMA = 0.5772156649015328606
REL_TOL = 1e-12
MAX_TERMS = 500
_TINY = 1e-300      # Lentz: c starts at 1/_TINY
_HUGE = np.finfo(float).max


def ln_beta(a: float, b: float) -> float:
    """ln B(a,b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b) for finite a, b > 0."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"ln_beta requires finite a, b > 0, got a={a}, b={b}")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _series(a: float, x):
    """Σ_{n≥0} xⁿ / ((a+1)...(a+n)) at each element of an array x, the sum
    of the ascending series of P(a,x); reliable for x < a + 1."""
    out = np.empty_like(x)
    idx = np.arange(x.size)
    term = np.ones_like(x)
    total = np.ones_like(x)
    denom = a
    for _ in range(MAX_TERMS):
        denom += 1.0
        term *= x / denom
        total += term
        conv = term < REL_TOL * total
        if conv.any():
            out[idx[conv]] = total[conv]
            keep = ~conv
            # one array at a time, so at most one extra copy is alive
            idx = idx[keep]
            x = x[keep]
            term = term[keep]
            total = total[keep]
        if not idx.size:
            return out
    raise ConvergenceError(
        f"lower-gamma series did not converge: a={a}, x={float(x[0])}, "
        f"max_terms={MAX_TERMS}")


def _gamma_cf(a: float, x):
    """The Legendre continued fraction 1/(x+1−a− 1·(1−a)/(x+3−a− ...)),
    a_n = −n(n−a), by the modified Lentz method at each element of an
    array x; Γ(a,x) is this times x^a·e^{−x}. Reliable for x ≥ a + 1; at
    a = 0 it gives e^{x}·E1(x).

    For x ≥ a + 1 the Lentz denominators never fall below 2 (checked over
    a = 0 with x in (1, 1e6] and a in [0.5, 1000] with x in [a+1, 1e6]),
    so the method's underflow guards would never act and are left out.
    """
    out = np.empty_like(x)
    idx = np.arange(x.size)
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, MAX_TERMS + 1):
        an = -i * (i - a)
        b += 2.0
        # d = 1/(an·d + b), c = b + an/c, in place
        d *= an
        d += b
        np.divide(1.0, d, out=d)
        np.divide(an, c, out=c)
        c += b
        delta = d * c
        h *= delta
        delta -= 1.0
        conv = np.abs(delta, out=delta) < REL_TOL
        if conv.any():
            out[idx[conv]] = h[conv]
            keep = ~conv
            idx = idx[keep]
            x = x[keep]
            b = b[keep]
            c = c[keep]
            d = d[keep]
            h = h[keep]
        if not idx.size:
            return out
    raise ConvergenceError(
        f"incomplete-gamma continued fraction did not converge: a={a}, "
        f"x={float(x[0])}, max_terms={MAX_TERMS}")


def _gamma_halves(a: float, x):
    """The incomplete gamma of a scalar a > 0 at an array x >= 0 as the
    pair (near, lower), elementwise: lower is x < a+1, where near is
    P(a,x) by _series; elsewhere near is Q(a,x) by _gamma_cf. Each half
    is the one its route computes without cancellation, so
    P = where(lower, near, 1 − near) and Q = where(lower, 1 − near, near).

    Each element's value depends on that element alone: the prefactor
    x^a·e^{−x}/Γ is one numpy expression over the whole array, and each
    loop drops an element from its arrays once it has converged, at any
    array size. The long arrays come from survival-table builds.
    x = inf gives Q = 0 and P = 1, as the largest double does.
    """
    shape = np.shape(x)
    x = np.minimum(np.asarray(x, dtype=float).ravel(), _HUGE)
    lower = x < a + 1.0
    with np.errstate(divide="ignore"):          # x = 0 gives P = 0
        pre = np.log(x)
    pre *= a
    pre -= x
    pre -= np.where(lower, math.lgamma(a + 1.0), math.lgamma(a))
    near = np.exp(pre, out=pre)
    near[lower] *= _series(a, x[lower])
    upper = ~lower
    near[upper] *= _gamma_cf(a, x[upper])
    return near.reshape(shape), lower.reshape(shape)


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = ∫_x^∞ e^{−t}/t dt for x > 0, 0 at +inf.

    Power series for x ≤ 1, _gamma_cf at a = 0 beyond.
    """
    if not x > 0.0:
        raise ValueError(f"exp_integral_e1 requires x > 0, got {x}")
    if x <= 1.0:
        # E1(x) = −γ − ln x + Σ_{k≥1} (−1)^{k+1} x^k / (k·k!)
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, MAX_TERMS + 1):
            term *= -x / k
            total -= term / k
            if abs(term) / k < REL_TOL * max(abs(total), 1e-300):
                return total
        raise ConvergenceError(
            f"E1 series did not converge: x={x}, max_terms={MAX_TERMS}"
        )
    # E1(x) = Γ(0,x) = e^{−x} · 1/(x+1− 1/(x+3− 4/(x+5− 9/(...))))
    x = min(x, _HUGE)
    return float(_gamma_cf(0.0, np.array([x]))[0]) * math.exp(-x)


def _reg_beta(m: float, w):
    """The regularized incomplete beta I_w(m, m) at each element of an array
    w in [0, 1/2]: w^m·(1−w)^m/(m·B(m,m)) times the fraction 1/(1+ d₁/(1+
    d₂/(1+ ...))), d_{2k+1} = −(m+k)(2m+k)w/((m+2k)(m+2k+1)), d_{2k} =
    k(m−k)w/((m+2k−1)(m+2k)) (Numerical Recipes' betacf at a = b = m), by
    modified Lentz. An element stops once an even/odd pair of steps moves
    it by less than REL_TOL; d_{2m} = 0 ends it at integer m. w = 0 gives 0.
    For w <= 1/2 the Lentz denominators stay above 1/(m+1) (checked over m
    in [0.5, 1000]), so the method's underflow guards are left out.
    """
    with np.errstate(divide="ignore"):          # w = 0 gives 0
        out = np.exp(m * (np.log(w) + np.log1p(-w)) - math.log(m)
                     - ln_beta(m, m))
    idx = np.arange(w.size)
    c = np.ones_like(w)
    d = 1.0 / (1.0 - (2.0 * m / (m + 1.0)) * w)
    h = d.copy()
    for k in range(1, MAX_TERMS + 1):
        pair = np.ones_like(w)
        for coef in (k * (m - k) / ((m + 2 * k - 1.0) * (m + 2 * k)),
                     -(m + k) * (2 * m + k) / ((m + 2 * k) * (m + 2 * k + 1.0))):
            an = coef * w
            # d = 1/(an·d + 1), c = 1 + an/c, in place
            d *= an
            d += 1.0
            np.divide(1.0, d, out=d)
            np.divide(an, c, out=c)
            c += 1.0
            delta = d * c
            h *= delta
            pair *= delta
        pair -= 1.0
        conv = np.abs(pair, out=pair) < REL_TOL
        if conv.any():
            out[idx[conv]] *= h[conv]
            keep = ~conv
            idx = idx[keep]
            w = w[keep]
            c = c[keep]
            d = d[keep]
            h = h[keep]
        if not idx.size:
            return out
    raise ConvergenceError(f"incomplete-beta continued fraction did not "
                           f"converge: m={m}, w={float(w[0])}, max_terms={MAX_TERMS}")
