"""Closed forms of the best-of-L Rayleigh SNR law, built on mpmath and
scipy alone, as a side that shares no code with crlink.

At mean SNR γ̄ the survival of the best of L users is
S(x) = Σ_k c_k e^{−kx/γ̄} with c_k = (−1)^{k+1} C(L,k), k = 1..L, so

    ∫_t^∞ S/x  = Σ_k c_k E1(kt/γ̄),
    ∫_t^∞ S/x² = Σ_k c_k (e^{−kt/γ̄}/t − (k/γ̄)·E1(kt/γ̄))

(Alouini & Goldsmith, IEEE T-VT 1999). The alternating terms cancel to
about 0.31·L digits, which the working precision covers.
"""

import math

import mpmath as mp
from scipy.optimize import brentq


def _digits(L):
    return mp.workdps(30 + math.ceil(0.31 * L))


def _terms(mean, L):
    return [((-1) ** (k + 1) * math.comb(L, k), k / mp.mpf(mean))
            for k in range(1, L + 1)]


def sf(x, mean, L):
    """S(x)."""
    with _digits(L):
        return float(mp.fsum(c * mp.exp(-r * x) for c, r in _terms(mean, L)))


def tails(t, mean, L):
    """(∫_t^∞ S(x)/x dx, ∫_t^∞ S(x)/x² dx) at t > 0."""
    with _digits(L):
        t = mp.mpf(t)
        g1 = g2 = mp.mpf(0)
        for c, r in _terms(mean, L):
            e1 = mp.e1(r * t)
            g1 += c * e1
            g2 += c * (mp.exp(-r * t) / t - r * e1)
        return float(g1), float(g2)


def _root(fn, hi):
    """The root of a decreasing fn on (0, hi], where fn(hi) <= 0."""
    return brentq(fn, 1e-9 * hi, hi, xtol=1e-300, rtol=1e-15)


def cutoff(mean, L, budget, k=1.0):
    """Water-filling cutoff γ₀ with power-loss factor K: the average power
    (1/K)·∫_{γ₀/K}^∞ S/x² spends the budget, and is below 1/γ₀."""
    return _root(lambda g: tails(g / k, mean, L)[1] / k - budget,
                 1.0 / budget)


def metrics(mean, L, budget, ber, sizes):
    """Capacity, continuous-rate and discrete-rate spectral efficiency
    (bit/s/Hz), at BER target ber with M-QAM sizes (0, M_1, ..., M_J).

    The discrete-rate policy sends M_j in [M_j·g*, M_{j+1}·g*) with power
    (M_j − 1)/g* − 1/(xK); g* spends the budget, which needs
    ∫_{b}^∞ f/x = S(b)/b − ∫_b^∞ S/x² at b = M_1·g*.
    """
    k = -1.5 / math.log(5.0 * ber)
    active = sizes[1:]

    def probs(gs):
        s = [sf(m * gs, mean, L) for m in active] + [0.0]
        return [a - b for a, b in zip(s, s[1:])]

    def dr_power(gs):
        b1 = active[0] * gs
        tail = sf(b1, mean, L) / b1 - tails(b1, mean, L)[1]
        return (math.fsum((m - 1) / gs * p for m, p in zip(active, probs(gs)))
                - tail / k)

    gs = _root(lambda g: dr_power(g) - budget, (active[-1] - 1) / budget)
    return (tails(cutoff(mean, L, budget), mean, L)[0] / math.log(2.0),
            tails(cutoff(mean, L, budget, k) / k, mean, L)[0] / math.log(2.0),
            math.fsum(math.log2(m) * p for m, p in zip(active, probs(gs))))
