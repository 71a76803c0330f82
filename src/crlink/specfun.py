"""Self-contained special functions backing the fading laws and capacity integrals.

All routines are pure functions of their arguments and are safe to call
concurrently. Every series and continued fraction stops at relative
tolerance REL_TOL or raises ConvergenceError after MAX_TERMS terms; both are
ample for double precision.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConvergenceError

EULER_GAMMA = 0.5772156649015328606
REL_TOL = 1e-12
MAX_TERMS = 500
_MANY_MIN = 64      # _gamma_halves: fewer elements go to the scalar loop
_TINY = 1e-300      # Lentz underflow guard
_HUGE = np.finfo(float).max


def ln_beta(a: float, b: float) -> float:
    """ln B(a,b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b) for a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"ln_beta requires a, b > 0, got a={a}, b={b}")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _series_sum(a: float, x: float) -> float:
    """Σ_{n≥0} xⁿ / ((a+1)...(a+n)), the sum of the ascending series of
    P(a,x); reliable for x < a + 1."""
    term = 1.0
    total = 1.0
    denom = a
    for _ in range(MAX_TERMS):
        denom += 1.0
        term *= x / denom
        total += term
        if term < REL_TOL * total:
            return total
    raise ConvergenceError(
        f"lower-gamma series did not converge: a={a}, x={x}, max_terms={MAX_TERMS}"
    )


def _gamma_cf(a: float, x: float) -> float:
    """The Legendre continued fraction 1/(x+1−a− 1·(1−a)/(x+3−a− ...)),
    a_n = −n(n−a), by the modified Lentz method; Γ(a,x) is this times
    x^a·e^{−x}. Reliable for x ≥ a + 1; at a = 0 it gives e^{x}·E1(x)."""
    tiny = _TINY
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, MAX_TERMS + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < REL_TOL:
            return h
    raise ConvergenceError(
        f"incomplete-gamma continued fraction did not converge: a={a}, x={x}, "
        f"max_terms={MAX_TERMS}"
    )


def _near_scalar(a: float, x: float, pre: float) -> float:
    """_gamma_halves' value at one element by the scalar loops, given its
    prefactor: P(a,x) for x < a+1, Q(a,x) otherwise."""
    if x < a + 1.0:
        return _series_sum(a, x) * pre
    return _gamma_cf(a, x) * pre


def _gamma_halves(a: float, x):
    """The incomplete gamma of a scalar a > 0 at an array x >= 0 as the
    pair (near, lower), elementwise: lower is x < a+1, where near is
    P(a,x) by the series; elsewhere near is Q(a,x) by the Lentz continued
    fraction. Each half is the one its route computes without
    cancellation, so P = where(lower, near, 1 − near) and
    Q = where(lower, 1 − near, near).

    Each element's value depends on that element alone. The prefactor
    x^a·e^{−x}/Γ is one numpy expression over the whole array, and the
    array loops and the scalar ones (_series_sum, _gamma_cf) do the same
    float operations in the same order. Numpy overhead makes one array
    step cost as much as a few dozen scalar ones, so an array of fewer
    than _MANY_MIN elements, like the last unconverged elements of a
    longer one, goes through the scalar loops; where that hand-off happens
    changes no bit. The long arrays come from survival-table builds.
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
    np.exp(pre, out=pre)
    if x.size < _MANY_MIN:
        near = [_near_scalar(a, v, p) for v, p in zip(x.tolist(), pre.tolist())]
        return np.array(near).reshape(shape), lower.reshape(shape)
    out = np.empty_like(x)
    idx = np.flatnonzero(lower)
    xs, ps = x[idx], pre[idx]
    term = np.ones_like(xs)
    total = np.ones_like(xs)
    denom = a
    for _ in range(MAX_TERMS):
        if idx.size < _MANY_MIN:
            break
        denom += 1.0
        term *= xs / denom
        total += term
        conv = term < REL_TOL * total
        if conv.any():
            out[idx[conv]] = total[conv] * ps[conv]
            keep = ~conv
            # one array at a time, so at most one extra copy is alive
            idx = idx[keep]
            xs = xs[keep]
            ps = ps[keep]
            term = term[keep]
            total = total[keep]
    out[idx] = [_near_scalar(a, v, p) for v, p in zip(xs.tolist(), ps.tolist())]
    # For x >= a+1 the Lentz denominators stay above 2 (checked over
    # a in [0.5, 1000], x in [a+1, 1e6]), so _gamma_cf's underflow guards
    # never act and are left out here.
    idx = np.flatnonzero(~lower)
    xl, ps = x[idx], pre[idx]
    b = xl + 1.0 - a
    c = np.full_like(xl, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, MAX_TERMS + 1):
        if idx.size < _MANY_MIN:
            break
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
            out[idx[conv]] = h[conv] * ps[conv]
            keep = ~conv
            idx = idx[keep]
            xl = xl[keep]
            ps = ps[keep]
            b = b[keep]
            c = c[keep]
            d = d[keep]
            h = h[keep]
    out[idx] = [_near_scalar(a, v, p) for v, p in zip(xl.tolist(), ps.tolist())]
    return out.reshape(shape), lower.reshape(shape)


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = ∫_x^∞ e^{−t}/t dt for x > 0.

    Power series for x ≤ 1, continued fraction (modified Lentz) beyond.
    """
    if x <= 0.0:
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
    return _gamma_cf(0.0, x) * math.exp(-x)


def _hyp2f1_series(a: float, b: float, c: float, w):
    """Σ_n (a)_n (b)_n / ((c)_n n!) wⁿ for array/scalar w with 0 ≤ w < 1.

    A terminating parameter set (b a nonpositive integer) is the
    polynomial of degree −b, summed in full. Otherwise each element keeps
    the partial sum at which its own terms converged, so its value does
    not depend on the rest of the array; the loop ends once every element
    has converged.
    """
    w = np.asarray(w, dtype=float)
    total = np.ones_like(w)
    term = np.ones_like(w)
    if b <= 0.0 and b == round(b):
        for n in range(int(-b)):
            term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * w
            total = total + term
        return total
    live = np.ones(w.shape, dtype=bool)
    for n in range(MAX_TERMS):
        factor = (a + n) * (b + n) / ((c + n) * (n + 1.0))
        term = term * factor * w
        total = np.where(live, total + term, total)
        live &= np.abs(term) > REL_TOL * np.maximum(np.abs(total), 1e-300)
        if not live.any():
            return total
    raise ConvergenceError(
        f"2F1 series did not converge: a={a}, b={b}, c={c}, "
        f"max |w|={float(np.max(np.abs(w)))}, max_terms={MAX_TERMS}"
    )
