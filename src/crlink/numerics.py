"""Adaptive Gauss–Kronrod quadrature, tabulated survival integrals and a
safeguarded Newton root finder.

The integrators expect vectorized integrands (ndarray in, ndarray out) and
return a (value, error_estimate) pair. A semi-infinite range [t, ∞) is
mapped onto (0, 1] by the single substitution x = t/u (with u = v⁴), which
turns the power-law tails of the gain-ratio distributions into smooth
endpoint behavior without a hand-derived truncation bound. SurvivalTable
answers the two tail integrals of one survival function S = law(Q, p) at
any lower limit from panels built once; the tables of a batch share the
base Q, the law and every law call, and differ in the parameter p.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .exceptions import ConvergenceError, NoSolutionError

# 15-point Kronrod extension of 7-point Gauss (QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])          # 15 ascending nodes
_WK = np.concatenate([_WGK[:7], _WGK[::-1]])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])            # G7 subset of the 15
_WGL = np.concatenate([_WG[:3], _WG[3:], _WG[2::-1]])     # G7 weights, ascending

_EPS = np.finfo(float).eps
_X_MIN, _X_MAX = 1e-14, 1e14    # root-finder domain
_MAX_LOG_STEP = math.log(100.0)
_SOLVE_REL = 1e-10              # root-finder stop: |g(x) − target| / target
_MAX_EVALS = 100                # root-finder evaluation budget
_MAX_PANELS = 4000              # quadrature panel budget


def _kronrod_panel(fn, a: float, b: float):
    """One G7/K15 evaluation on [a,b] -> (K15 value, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(fn(mid + half * _NODES), dtype=float)
    k15 = half * float(np.dot(_WK, fx))
    g7 = half * float(np.dot(_WGL, fx[_GAUSS_IDX]))
    resabs = half * float(np.dot(_WK, np.abs(fx)))
    mean = k15 / (b - a)
    resasc = half * float(np.dot(_WK, np.abs(fx - mean)))
    err = abs(k15 - g7)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return k15, err


def integrate(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              abs_tol: float = 1e-12,
              rel_tol: float = 1e-10) -> Tuple[float, float]:
    """Adaptive ∫_a^b fn(x) dx; returns (value, error estimate).

    Worst-panel bisection until the summed error estimate meets
    max(abs_tol, rel_tol·|value|). Integrable endpoint singularities are
    fine (the rule is open); raises ConvergenceError at the panel budget.
    """
    if b <= a:
        return 0.0, 0.0
    total_val, total_err = _kronrod_panel(fn, a, b)
    heap = [(-total_err, a, b, total_val, total_err)]
    panels = 1
    while total_err > max(abs_tol, rel_tol * abs(total_val)):
        if panels >= _MAX_PANELS:
            raise ConvergenceError(
                f"quadrature did not reach tolerance on [{a}, {b}]: "
                f"value={total_val}, error={total_err}, panels={panels}"
            )
        _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:   # interval at floating-point resolution
            heapq.heappush(heap, (0.0, pa, pb, pval, 0.0))
            total_err -= perr
            continue
        lv, le = _kronrod_panel(fn, pa, pm)
        rv, re = _kronrod_panel(fn, pm, pb)
        total_val += lv + rv - pval
        total_err += le + re - perr
        heapq.heappush(heap, (-le, pa, pm, lv, le))
        heapq.heappush(heap, (-re, pm, pb, rv, re))
        panels += 1
    return total_val, total_err


def integrate_to_inf(fn: Callable[[np.ndarray], np.ndarray], a: float,
                     abs_tol: float = 1e-12,
                     rel_tol: float = 1e-10) -> Tuple[float, float]:
    """Adaptive ∫_a^∞ fn(x) dx for a > 0; returns (value, error estimate).

    Maps [a, ∞) onto (0, 1] with x = a/u, u = v⁴, so
    ∫_a^∞ fn = ∫_0^1 fn(a/v⁴)·4a/v⁵ dv. Power-law tails become smooth
    endpoint behavior at v → 0. The fourth power keeps mass lying up to
    ~10⁹·a within reach of the first panel's nodes; mass beyond that
    weighs less than ~10⁻⁹ relative in a decaying integrand such as a
    survival function over x². The map needs a > 0: at a ≤ 0 it raises
    ValueError.
    """
    if not a > 0.0:
        raise ValueError(f"integrate_to_inf requires a > 0, got {a}")

    def mapped(v):
        v = np.asarray(v, dtype=float)
        u = v ** 4
        return fn(a / u) * (4.0 * a / (u * v))

    return integrate(mapped, 0.0, 1.0, abs_tol, rel_tol)


def _legendre_table(u: np.ndarray, n: int) -> np.ndarray:
    """P_0..P_{n-1} at u, one column per degree, by the three-term
    recurrence."""
    p = np.empty((len(u), n))
    p[:, 0] = 1.0
    p[:, 1] = u
    for k in range(1, n - 1):
        p[:, k + 1] = ((2 * k + 1) * u * p[:, k] - k * p[:, k - 1]) / (k + 1)
    return p


# Legendre-series coefficients of the degree-14 interpolant through the 15
# Kronrod nodes: coefficients = values @ _LEG_FROM_NODES.
_LEG_FROM_NODES = np.linalg.inv(_legendre_table(_NODES, 15)).T
# Row k holds the coefficients of P_k in u⁰..u¹⁴, fitted at the nodes; 2¹⁴·P_k
# has integer coefficients, so rounding to 2⁻¹⁴ makes them exact.
_MONO_FROM_LEG = np.round(np.linalg.solve(
    np.vander(_NODES, 15, increasing=True) / 2.0 ** 14,
    _legendre_table(_NODES, 15)).T) / 2.0 ** 14


_TABLE_REL = 1e-13      # panel error bound, relative to the integral to its right
_TABLE_ABS = 1e-313     # ... or absolute, where that integral underflows
_TABLE_GRID = np.arange(-300.0, 49.0, 4.0)  # extent search in s = ln y
_TABLE_MAX_PANELS = 20000
_TABLE_MAX_SPLIT = 16
_TABLE_CALL = 128       # panels per base call, to bound its working memory
_TABLE_BLOCK = 2048     # panels per block of a build round, to bound its memory
_TABLE_EVAL = 512       # new panels per evaluation in a round, likewise
_TAIL_SF = 2.0 ** -54   # where L·S₁ is at most this, −expm1(L·ln F) is L·S₁
_SPLIT_STEPS = np.arange(1.0, 17.0) / 4.0  # split lattice in a grid step
_ALIGNED = np.array([2.0, 1.0, 0.5, 0.25])  # first panels by a split


def _panel_sums(f: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """K15 values and |K15 − G7| of both integrands from their values f
    (2, panels, 15), which it overwrites: arrays (2, panels). The sums over
    the nodes are reductions, whose rows do not depend on how many rows
    there are."""
    half = 0.5 * (hi - lo)
    g7 = f[:, :, _GAUSS_IDX]
    g7 *= _WGL
    g7 = half * g7.sum(axis=-1)
    f *= _WK
    k15 = half * f.sum(axis=-1)
    np.abs(f, out=f)
    floor = 50.0 * _EPS * half * f.sum(axis=-1)
    return k15, np.maximum(np.abs(k15 - g7), floor)


class _Nodes:
    """A base function at the Kronrod nodes of every distinct panel that a
    batch of tables asks for, each evaluated once; two tables share a
    panel when its edges are the same floats. Row r holds the panel
    [lo[r], hi[r]], its nodes y[r] and the base at them, q[r]."""

    def __init__(self, base: Callable[[np.ndarray], np.ndarray]):
        self.base = base
        self.grid = np.asarray(base(np.exp(_TABLE_GRID)), dtype=float)
        self.lo = self.hi = np.empty(0)
        self.y = self.q = np.empty((0, len(_NODES)))

    def rows(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The rows of the panels [lo, hi]; the base is evaluated at the
        nodes of the panels not seen before, _TABLE_CALL panels a call."""
        known = len(self.lo)
        # one key per panel, sorted by lo and then hi; first is each key's
        # first occurrence, so a known panel keeps its row
        keys = np.concatenate([self.lo + 1j * self.hi, lo + 1j * hi])
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        fresh = first >= known
        row = np.where(fresh, known + np.cumsum(fresh) - 1, first)
        new = keys[first[fresh]]
        if len(new):
            y = np.exp(0.5 * (new.real + new.imag)[:, None]   # the nodes
                       + 0.5 * (new.imag - new.real)[:, None] * _NODES)
            self.lo = np.concatenate([self.lo, new.real])
            self.hi = np.concatenate([self.hi, new.imag])
            self.y = np.concatenate([self.y, y])
            self.q = np.concatenate([self.q] + [
                np.asarray(self.base(y[i:i + _TABLE_CALL].ravel()),
                           dtype=float).reshape(-1, len(_NODES))
                for i in range(0, len(y), _TABLE_CALL)])
        return row[inverse[known:]]

    def values(self, law, rows: np.ndarray, param: np.ndarray) -> np.ndarray:
        """Both integrands in s, S·e^{−s} and S with S = law(base, param[i]),
        at the nodes of each panel rows[i], in one law call: (2, panel, 15)."""
        q = self.q[rows]
        f = np.empty((2,) + q.shape)
        f[1] = law(q, param[:, None])
        np.divide(f[1], self.y[rows], out=f[0])
        return f


class SurvivalTable:
    """The two tail integrals of a survival function S on (0, ∞),

        G2(τ) = ∫_τ^∞ S(y)/y² dy,   G1(τ) = ∫_τ^∞ S(y)/y dy,

    tabulated once so that any τ > 0 is answered without evaluating S.

    Both are integrals in s = ln y, of S·e^{−s} and of S. The table spans
    [s_lo, s_hi], the last point of the grid −300, −296, ..., 48 where S
    rounds to 1 and the first where it is 0 (or 48). Below s_lo, S is
    taken as 1, dropping 1 − S < 1.2e-16, and the integrals are closed
    form. Beyond s_hi, a G is one semi-infinite integral from τ (_beyond):
    from e^{s_hi} once at the build, and from τ at a query past s_hi.
    Where S is 0 at s_hi both are 0, with no quadrature, as they are at
    τ = ∞. The panels in between are split in rounds until each panel's
    G7/K15 difference is at most 1e-13 of the integral from its left edge
    to infinity (or 1e-313 where that underflows).

    The table of S = law(Q, p) at its parameter p is a view of its batch's
    arrays (_Batch), which answers many (table, τ) pairs at once; the
    program reads it only there, through mud.SurvivalQuery. A table of
    S = L·S₁ may end at a split s_c < s_hi, past which it reads its batch's
    table of S₁, its tail, times L; s_lo and s_hi stay its extent.
    """

    # its panels' node rows, edges and right sums (G2, G1 from each panel
    # edge on, and their error estimates): views into its batch's arrays
    _rows, _lo, _hi, _right, _right_err = (
        property(lambda self, k=k: self._batch.arrays(self._index)[k])
        for k in range(5))
    # its extent, where its tail (if any) takes over and the factor on it
    s_lo, s_hi, _split, _factor, _open = (
        property(lambda self, k=k: getattr(self._batch, k)[self._index].item())
        for k in ("_s_lo", "_s_hi", "_split", "_factor", "_open"))

    def __init__(self, batch: "_Batch", index: int, tail=None):
        # the batch holds no table, so a table lives as long as its user
        self._batch, self._index, self._tail = batch, index, tail

    def _forms(self) -> np.ndarray:
        """The polynomials of every panel as the batch forms them, one row
        per panel (_Batch._poly, coefficient by coefficient); this forms
        them all."""
        n, b = len(self._lo), self._batch
        j = b._first[self._index] + np.arange(n)
        b._form(j)
        return b._poly[:, b._slot[j]].transpose(1, 0, 2).reshape(n, -1)


def _keys(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Complex keys t + i·s, which numpy sorts by t and then by s; built
    part by part, as 1j·s would turn s = ±inf into nan."""
    keys = np.empty(len(s), dtype=complex)
    keys.real, keys.imag = t, s
    return keys


class _Batch:
    """The survival tables of one build, read together: element i of a
    query is table t[i] at τ[i].

    Table t is that of S = law(base, param[t]) (_survival_tables). The
    build hands over the tables that finish in a round together (_parts).
    The first read joins them into one array ordered by (table, s), so one
    searchsorted on the keys table + i·lo finds the panel of every element
    at once, a knot taking the panel to its left. Table t's n panels start
    at _first[t], and its n + 1 right sums at column _first[t] + t; a
    table's own arrays are views of these (arrays).

    The polynomials of a panel are formed when a query first lands in it,
    together with those of every other new panel of the query, and kept:
    column slot[j] of _poly holds, in u = (2s − a − b)/(b − a) on the
    panel [a, b] and highest degree first, the interpolant of S through its
    15 node values, its derivative in u, and the integrals in s of the G2
    and G1 integrands from u to b. Horner's rule evaluates the four of every
    element together. No operation mixes elements, so a query of one
    element answers as a query of many.
    """

    def __init__(self, nodes: _Nodes, law, param: np.ndarray, tail: bool):
        self._nodes, self._law = nodes, law
        at = law(nodes.grid, param[:, None])        # (table, grid point)
        # the last grid point where S rounds to 1 and the first where it is 0
        zeros, i = at == 0.0, np.arange(len(_TABLE_GRID))
        lo, hi = ((at == 1.0) * i).max(1), np.where(zeros, i, i[-1]).min(1)
        if (hi <= lo).any():
            raise ValueError("survival function has no transition on the grid")
        s_lo, s_hi = _TABLE_GRID[lo], _TABLE_GRID[hi]
        # from its split on, table t reads table host[t] times factor[t]:
        # its tail, or itself past s_hi
        split, host, n = s_hi.copy(), np.arange(len(param)), len(param)
        if tail:
            s = _splits(nodes, law, at[-1], param)
            head = np.flatnonzero(s[:-1] < s_hi[:-1])
            split[head], host[head], s_lo[-1] = s[head], n - 1, s[-1]
            n -= not head.size
        self._param, self._s_lo, self._s_hi, self._split, self._host = (
            v[:n] for v in (param, s_lo, s_hi, split, host))
        self._open = ~zeros[:n].any(axis=1)         # S > 0 at s_hi
        self._factor = np.where(self._host == np.arange(n), 1.0, self._param)
        self._exp_lo = np.array([math.exp(-s) for s in self._s_lo.tolist()])
        self._exp_hi = np.array([math.exp(s) for s in self._s_hi.tolist()])
        self._parts = []

    def _join(self) -> None:
        """One array of each kind for all tables, from the parts."""
        tab, rows, lo, hi, right, err = (np.concatenate(v, axis=-1)
                                         for v in zip(*self._parts))
        self._parts = None
        n = np.bincount(tab, minlength=len(self._host))
        handed = tab[np.flatnonzero(tab != np.concatenate(([-1], tab[:-1])))]
        panels = np.argsort(tab, kind="stable")
        edges = np.argsort(np.repeat(handed, n[handed] + 1), kind="stable")
        self._first = np.cumsum(n) - n
        self._last = self._first + n - 1
        self._rows, self._lo, self._hi = rows[panels], lo[panels], hi[panels]
        self._right, self._right_err = right[:, edges], err[:, edges]
        tables = np.arange(len(n))
        self._key = _keys(np.repeat(tables, n), self._lo)
        self._slot = np.full(len(self._lo), -1)
        self._poly = np.empty((16, 0, 4))       # (coefficient, panel, poly)
        heads = np.flatnonzero(self._host != tables)
        if heads.size:
            # a head's sums from each edge on add its factor times its
            # tail's from the split on, read as a query reads them
            tail, s = self._host[heads], self._split[heads]
            j = np.maximum(np.searchsorted(self._key, _keys(tail, s)) - 1,
                           self._first[tail])
            a, b = self._lo[j], self._hi[j]
            v = self._read(j, (2.0 * s - a - b) / (b - a))
            add = np.zeros((4, len(n)))             # G2, G1 and their errors
            add[:2, heads] = self._right[:, j + tail + 1] + v[:, 2:].T
            add[2:, heads] = self._right_err[:, j + tail]
            add = (add * self._factor)[:, np.repeat(tables, n + 1)]
            self._right += add[:2]
            self._right_err += add[2:]
        # G2 from each edge on falls along a table: keys for inverse_g2
        self._g2_key = _keys(np.repeat(tables, n + 1), -self._right[0])

    def arrays(self, t: int) -> tuple:
        """Table t's node rows, panel edges lo and hi, and right sums with
        their error estimates, as views."""
        if self._parts is not None:
            self._join()
        panels = slice(self._first[t], self._last[t] + 1)
        edges = slice(self._first[t] + t, self._last[t] + t + 2)
        return (self._rows[panels], self._lo[panels], self._hi[panels],
                self._right[:, edges], self._right_err[:, edges])

    def _form(self, j: np.ndarray) -> None:
        """The polynomials of the panels j not formed yet, in one product."""
        missing = self._slot[j] < 0
        if not np.count_nonzero(missing):
            return
        new = np.zeros(len(self._slot), dtype=bool)
        new[j[missing]] = True
        new = np.flatnonzero(new)               # by table, then by s
        tab = np.searchsorted(self._first, new, side="right") - 1
        f = self._nodes.values(self._law, self._rows[new], self._param[tab])
        f = f.transpose(1, 0, 2).copy()         # (panels, G2 or G1, nodes)
        # where S >= 1/2 on the panel, S − 1 is exact, and its polynomial
        # keeps the digits of the slope that the one of S would round off
        lead = f[:, 1].min(axis=1) >= 0.5
        f[lead, 1] -= 1.0
        # the Legendre series first: converting the values in one product
        # would cancel entries of order 1e4 and keep 1e-12 of the values
        c = f @ _LEG_FROM_NODES @ _MONO_FROM_LEG   # (G2, G1) in u⁰..u¹⁴
        c[lead, 1, 0] += 1.0
        # ∫_u^1 u'^k du' = (1 − u^(k+1))/(k + 1), and ds = (b − a)/2·du
        q = (0.5 * (self._hi[new] - self._lo[new]))[:, None, None] * c \
            / np.arange(1.0, 16.0)
        poly = np.zeros((16, len(new), 4))
        poly[1:, :, 0] = c[:, 1, ::-1].T                         # S
        poly[2:, :, 1] = (c[:, 1, 1:] * np.arange(1.0, 15.0))[:, ::-1].T
        poly[:15, :, 2:] = -q[:, :, ::-1].transpose(2, 0, 1)
        poly[15, :, 2:] = q.sum(axis=2)
        self._slot[new] = self._poly.shape[1] + np.arange(len(new))
        self._poly = np.concatenate([self._poly, poly], axis=1)

    def _read(self, j: np.ndarray, u: np.ndarray) -> np.ndarray:
        """S, its slope in u and the parts of G2 and G1 on panel j[i] from
        u[i] to its end, by Horner's rule: an array (elements, 4)."""
        self._form(j)
        c = self._poly[:, self._slot[j]].reshape(16, -1)
        v, ur = c[0].copy(), np.repeat(u, 4)
        for ci in c[1:]:
            v *= ur
            v += ci
        return v.reshape(-1, 4)

    def query(self, t: np.ndarray, tau: np.ndarray, power: int,
              want: Optional[np.ndarray] = None) -> tuple:
        """S(τ), dS/ds (s = ln τ), G_power(τ) >= 0 and its error estimate
        at each element, table t[i] at tau[i] >= 0, for power 1 or 2; with
        the mask want, G is read only where it is set. An element with no
        G reads nan. G is clamped at 0, which rounding undercuts by a few
        subnormals where S falls to 0.

        Below s_lo, S is 1, its slope 0 and G closed form; past a closed
        s_hi all are 0; past an open s_hi S is the law and its slope −m·S,
        with m read from the last panel's interpolant at s_hi, and G is
        _beyond. From its split on, a head answers as its tail times its
        factor, past s_hi too."""
        if np.count_nonzero(tau >= 0.0) < len(tau):     # NaN fails it too
            raise ValueError(f"tau must be numbers >= 0, got {tau}")
        if self._parts is not None:
            self._join()
        s = np.log(tau, out=np.full(len(tau), -math.inf), where=tau > 0.0)
        over = s >= self._split[t]
        factor = np.where(over, self._factor[t], 1.0)
        t = np.where(over, self._host[t], t)
        below, past = s < self._s_lo[t], s >= self._s_hi[t]
        # the panel holding s; past s_hi the last one, read at its end
        j = np.maximum(np.searchsorted(self._key, _keys(t, s)) - 1,
                       self._first[t])
        a, b = self._lo[j], self._hi[j]
        v = self._read(j, np.where(below | past, 1.0,
                                   (2.0 * s - a - b) / (b - a)))
        row = 1 if power == 1 else 0            # G2 or G1 in _right
        sf, slope = v[:, 0], 2.0 * v[:, 1] / (b - a)
        g = self._right[row, j + t + 1] + v[:, 2 + row]
        err = self._right_err[row, j + t]
        if np.count_nonzero(below):
            i = below.nonzero()[0]
            ti, at = t[i], self._first[t[i]] + t[i]
            sf[i], slope[i] = 1.0, 0.0
            g[i] = self._right[row, at] + (
                np.divide(1.0, tau[i], out=np.full(len(i), math.inf),
                          where=tau[i] > 0.0) - self._exp_lo[ti]
                if row == 0 else self._s_lo[ti] - s[i])
            err[i] = self._right_err[row, at]
        if np.count_nonzero(past):
            i = past.nonzero()[0]
            i, shut = i[self._open[t[i]]], i[~self._open[t[i]]]
            sf[shut] = slope[shut] = g[shut] = err[shut] = 0.0
            if i.size:
                self._past(t, tau, power, want, i, v[i, :2], (b - a)[i],
                           sf, slope, g, err)
        np.maximum(g, 0.0, out=g)
        if want is not None:
            g[~want] = err[~want] = math.nan
        for out in (sf, slope, g, err):
            out *= factor
        return sf, slope, g, err

    def _past(self, t, tau, power, want, i, end, width, sf, slope, g,
              err) -> None:
        """Fill in the elements i, past an open s_hi, with end the last
        panel's interpolant of S and its slope in u at s_hi."""
        sf[i] = self._law(self._nodes.base(tau[i]), self._param[t[i]])
        slope[i] = 2.0 * end[:, 1] / (end[:, 0] * width) * sf[i]
        for k in (i if want is None else i[want[i]]).tolist():
            g[k], err[k] = self._beyond(t[k], float(tau[k]), power)

    def _beyond(self, t: int, tau: float, power: int) -> Tuple[float, float]:
        """∫_τ^∞ S(y)/y^power dy of table t at τ past its open s_hi, and its
        error estimate, as τ^(1−power)·∫_1^∞ S(τz)/z^power dz, taken in y/τ
        so that S/y² does not underflow before S does (S counts as 0 past
        the largest double)."""
        if tau == math.inf:
            return 0.0, 0.0
        law, base, p = self._law, self._nodes.base, self._param[t]
        scale = tau ** (1 - power)
        with np.errstate(over="ignore"):    # τ·z = inf, where S is 0
            val, err = integrate_to_inf(lambda z: law(base(tau * z), p)
                                        / z ** power, 1.0, 0.0, _TABLE_REL)
        return val * scale, err * scale

    def inverse_g2(self, t: np.ndarray, value: np.ndarray) -> np.ndarray:
        """The τ where G2 of table t[i] is value[i] >= 0, estimated without
        a query: closed form below s_lo, and in between where ln G2, linear
        in s between the panel edges, meets ln value (G2 itself where it
        falls to 0 at a closed s_hi). Past s_hi it is e^{s_hi}. Below its
        G2 at the split, a head searches its tail at value/factor."""
        if self._parts is not None:
            self._join()
        over = value < self._right[0, self._last[t] + t + 1]
        value = np.where(over, value / self._factor[t], value)
        t = np.where(over, self._host[t], t)
        at = self._first[t] + t                 # G2 at s_lo
        top = self._right[0, at]
        # right[i-1] > value >= right[i] along the table's edges
        i = np.searchsorted(self._g2_key, _keys(t, -value))
        out = self._exp_hi[t]
        head = value >= top
        out[head] = 1.0 / (value[head] - top[head] + self._exp_lo[t[head]])
        mid = (~head & (i <= self._last[t] + t + 1)).nonzero()[0]
        if mid.size:
            k, v = i[mid], value[mid]
            j = k - t[mid] - 1                  # the panel ending at column k
            a, b, ra, rb = self._lo[j], self._hi[j], self._right[0, k - 1], \
                self._right[0, k]
            w = np.empty(len(mid))
            zero = rb == 0.0
            w[zero] = (ra[zero] - v[zero]) / (ra[zero] - rb[zero])
            w[~zero] = (np.log(ra[~zero] / v[~zero])
                        / np.log(ra[~zero] / rb[~zero]))
            out[mid] = np.exp(a + (b - a) * w)
        return out


def _splits(nodes: _Nodes, law, grid: np.ndarray, factors) -> np.ndarray:
    """s_c(L) for each factor L: the first point of a lattice of step 1/4
    in s where L·S₁ <= 2⁻⁵⁴, S₁ = law(base, 1) and grid its values at the
    grid, searched in the grid step up to the first grid point where that
    holds (inf where none does), so it depends on the law and L alone."""
    factors = np.asarray(factors, dtype=float)[:, None]
    k = (factors * grid <= _TAIL_SF).argmax(axis=1)     # 0: none
    out, on = np.full(len(k), math.inf), k > 0
    if on.any():
        steps, row = np.unique(k[on], return_inverse=True)
        # the lattice points of each step, the last one grid[k], which holds
        s = _TABLE_GRID[steps - 1, None] + _SPLIT_STEPS
        sf = law(nodes.base(np.exp(s.ravel())), 1.0).reshape(s.shape)[row]
        out[on] = s[row, (factors[on] * sf <= _TAIL_SF).argmax(axis=1)]
    return out


def _survival_tables(base: Callable[[np.ndarray], np.ndarray], law, params,
                     tail: bool = False) -> list:
    """One SurvivalTable of S = law(base(y), p) per parameter p in params,
    all on one node store, built in rounds (_build_round) over blocks of
    about _TABLE_BLOCK panels, and read together through one _Batch. The
    law maps base values and a column of parameters to S elementwise, and
    each step of a build calls it once for all tables; provided the base
    is elementwise too, a table is the same, bit for bit, whatever else is
    in its batch.

    With tail, params are user counts L, and law(Q, L) is L·law(Q, 1) to
    rounding wherever that is at most 2⁻⁵⁴, as the best of L users is.
    Table i is then a head that ends at s_c(L) < s_hi (_splits) and reads
    one more table, of S₁ = law(Q, 1) from s_c(1) on, past it; that tail
    is built in the same rounds. A head is refined as if its tail were 0, a
    lower bound on its sums to the right, and then adds L times the
    tail's (_Batch._join)."""
    batch = _Batch(_Nodes(base), law, np.array(
        [*params, 1.0] if tail else params, dtype=float), tail)
    # the integrals past the split: (tables, G2 or G1, value or error)
    ends = np.array([[batch._beyond(t, math.exp(s), p) if batch._open[t]
                      and batch._host[t] == t else (0.0, 0.0) for p in (2, 1)]
                     for t, s in enumerate(batch._s_hi.tolist())])
    # the first partitions, a row of points per table: the grid within
    # [s_lo, split] (s_lo stands in for the rest) and, from an end off the
    # grid, panels of width 2, 1, 1/2 and 1/4 aligned as [0, 4] is, so that
    # panels split from them in different tables meet at equal floats
    lo, cut = batch._s_lo[:, None], batch._split[:, None]
    points = np.hstack([lo, cut, np.ceil(lo / _ALIGNED) * _ALIGNED,
                        np.floor(cut / _ALIGNED) * _ALIGNED, np.where(
                            (_TABLE_GRID > lo) & (_TABLE_GRID < cut),
                            _TABLE_GRID, lo)])
    # sorted(set()): np.unique's first call here cost 1 MB of RSS
    grid = np.array(sorted(set(points.ravel().tolist())))
    on = np.zeros((len(points), len(grid)), dtype=bool)
    on[np.arange(len(points))[:, None], np.searchsorted(grid, points)] = True
    tab, k = np.nonzero(on)
    edge = np.flatnonzero(tab[1:] == tab[:-1])
    # per panel of the live tables, by (table, s): table, node row, new or
    # not, and sums: K15 values of the G2 and G1 integrands, G7/K15 errors
    rows = batch._nodes.rows(grid[k[edge]], grid[k[edge + 1]])
    live = tab[edge], rows, np.ones(len(rows), bool), np.empty((4, len(rows)))
    while len(live[0]):
        # blocks of whole tables, of about _TABLE_BLOCK panels
        first = np.flatnonzero(live[0] != np.concatenate(([-1], live[0][:-1])))
        cuts = [0, *first[np.flatnonzero(np.diff(first // _TABLE_BLOCK))
                          + 1].tolist(), len(live[0])]
        parts = [_build_round(batch, ends, *(v[..., a:b] for v in live))
                 for a, b in zip(cuts, cuts[1:])]
        live = parts[0] if len(parts) == 1 else [
            np.concatenate(v, axis=-1) for v in zip(*parts)]
    tail = SurvivalTable(batch, len(batch._host) - 1)   # read by any heads
    return [SurvivalTable(batch, t, tail if h != t else None)
            for t, h in enumerate(batch._host[:len(params)].tolist())]


def _build_round(batch: _Batch, ends: np.ndarray, tab: np.ndarray,
                 rows: np.ndarray, new: np.ndarray, sums: np.ndarray) -> tuple:
    """One round for a block of whole tables, given by their panels ordered
    by (table, s) and the table of each, tab: the sums of their new panels,
    _TABLE_EVAL at a time with one call of the law, and the sums from every
    panel on. The tables with no panel over its bound hand their partitions
    and sums to the batch together; in the others each such panel is split
    in place, and their panels are returned as they came."""
    nodes = batch._nodes
    start = np.flatnonzero(tab != np.concatenate(([-1], tab[:-1])))
    n = np.concatenate((start[1:], [len(tab)])) - start
    local, ends = np.repeat(np.arange(len(n)), n), ends[tab[start]]
    lo, hi = nodes.lo[rows], nodes.hi[rows]
    fresh = np.flatnonzero(new)
    for c in range(0, len(fresh), _TABLE_EVAL):
        p = fresh[c:c + _TABLE_EVAL]
        f = nodes.values(batch._law, rows[p], batch._param[tab[p]])
        sums[:, p] = np.concatenate(_panel_sums(f, lo[p], hi[p]))
    # the sums from each panel on: one cumsum along zero-padded rows that
    # hold a table's integrals past its end and then its panels from the
    # last one down, the order in which the table's own cumsum would add them
    width = n.max() + 1
    at = np.repeat(np.arange(len(n)) * width + start + n, n) \
        - np.arange(len(rows))
    pad = np.zeros((2, len(n) * width))
    pad[:, ::width] = ends[:, :, 0].T
    pad[0, at], pad[1, at] = sums[:2]
    right = np.cumsum(pad.reshape(2, len(n), width), axis=2)
    excess = (sums[2:] / np.maximum(_TABLE_REL * right.reshape(2, -1).take(
        at, axis=1), _TABLE_ABS)).max(axis=0)
    bad = (excess > 1.0) & (hi - lo > 1e-12)
    # about excess^(1/10) pieces: the G7 error falls as width^14 once a
    # panel resolves S, and a slower guess splits one that does not yet
    # resolve it finely enough in a single round
    k = np.clip(np.ceil(excess[bad] ** (1.0 / 10.0)), 2,
                _TABLE_MAX_SPLIT).astype(int)
    more = np.bincount(local[bad], k, len(n))
    if (n + more > _TABLE_MAX_PANELS).any():
        raise ConvergenceError(
            f"survival table did not reach tolerance in "
            f"{_TABLE_MAX_PANELS} panels")
    done = np.flatnonzero(more == 0)        # their partitions are final
    if done.size:
        # the sums of each from its first edge on, columns n, ..., 0 of its
        # row, and the error sums likewise
        pad[:, ::width] = ends[:, :, 1].T
        pad[0, at], pad[1, at] = sums[2:]
        err = np.cumsum(pad.reshape(2, len(n), width)[:, done], axis=2)
        m, keep = n[done] + 1, more[local] == 0
        back = np.repeat(np.cumsum(m) - 1, m) - np.arange(m.sum())
        batch._parts.append((tab[keep], rows[keep], lo[keep], hi[keep], *(
            c.reshape(2, -1)[:, np.repeat(r * width, m) + back]
            for c, r in ((right, done), (err, np.arange(len(done)))))))
        if done.size == len(n):
            return tab[:0], rows[:0], new[:0], sums[:, :0]
    copies = (more > 0)[local].astype(int)  # 1 per panel kept, k per split
    copies[bad] = k
    at = np.repeat(np.arange(len(rows)), copies)
    i = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
    kk, a, b = np.repeat(k, k), np.repeat(lo[bad], k), np.repeat(hi[bad], k)
    new, rows, sums, tab = bad[at], rows[at], sums.take(at, axis=1), tab[at]
    rows[new] = nodes.rows(a + (b - a) * (i / kk), np.where(
        i + 1 == kk, b, a + (b - a) * ((i + 1) / kk)))
    return tab, rows, new, sums


def _apart(fn: Callable[[np.ndarray], tuple], idx: np.ndarray):
    """fn(idx) for an array of element indices, with each element's
    exception its own: where fn raises, each element is evaluated alone.
    Returns the indices answered, fn's outputs for them (None if none) and
    {index: exception} for the others. An elementwise fn gives every
    answered element the value it has in the whole call."""
    try:
        return idx, fn(idx), {}
    except Exception:
        ok, outs, errors = [], [], {}
        for i in idx.tolist():
            try:
                outs.append(fn(np.array([i])))
                ok.append(i)
            except Exception as exc:
                errors[i] = exc
        return (np.array(ok, dtype=int),
                tuple(np.concatenate(o) for o in zip(*outs)) if outs else None,
                errors)


class Roots(NamedTuple):
    """solve_decreasing's answer per element: x and residual g(x) − target,
    evals the evaluations each took, kept the extra output of g at x (or
    None) and errors the exception of each element that has no root (or
    None); calls counts the evaluations of g, one per round."""

    x: np.ndarray
    residual: np.ndarray
    calls: int
    evals: np.ndarray
    kept: Optional[np.ndarray]
    errors: list


def solve_decreasing(g: Callable[[np.ndarray, np.ndarray], tuple], target,
                     x0=1.0) -> Roots:
    """Solve g_i(x_i) = target_i > 0 for every element i of the arrays
    target and x0, each g_i positive and strictly decreasing on
    [1e-14, 1e14], all in lockstep.

    g(x, i) evaluates the elements i at x, returning (value, derivative)
    arrays and, optionally, a third array whose row at the root is kept.
    Per element, Newton steps act on ln g against ln x, which is exact for
    power laws such as 1/x. The tightest bracket seen is kept; a step that
    leaves it is replaced by the geometric midpoint, and any step moves x
    by at most a factor of 100. An element stops when
    |g(x) − target| <= 1e-10·target, or at the closest point seen once its
    bracket is exhausted at floating-point resolution. It gets
    NoSolutionError when its root lies outside the domain, ConvergenceError
    after 100 evaluations, or the exception that g raised on it alone
    (_apart). Every operation is elementwise, so an element's answer does
    not depend on the others.
    """
    target = np.array(target, dtype=float).reshape(-1)
    n = len(target)
    out_x, out_res = np.full((2, n), math.nan)
    evals, errors, out_kept = np.zeros(n, dtype=int), [None] * n, None
    # per element still solving (i): x, the bracket, the target and the
    # closest point seen with its residual; rows of one array, so that
    # dropping the elements that stop is one step
    i, state = np.arange(n), np.empty((6, n))
    state[0] = np.minimum(np.maximum(x0, _X_MIN), _X_MAX)
    state[1:] = np.array([0.0, math.inf, 0.0, math.nan, math.nan])[:, None]
    state[3] = target
    best_kept, calls = None, 0

    def keep(go):
        nonlocal i, state, best_kept
        i, state = i[go], state[:, go]
        best_kept = None if best_kept is None else best_kept[go]

    while i.size and calls < _MAX_EVALS:
        calls += 1
        evals[i] = calls            # every element still solving is evaluated
        try:
            got = g(state[0], i)
        except Exception:           # find the elements that raise
            ok, got, failed = _apart(lambda k: g(state[0, k], i[k]),
                                    np.arange(len(i)))
            for k, exc in failed.items():
                errors[i[k]] = exc
            keep(ok)
            if got is None:
                break
        x, lo, hi, tgt, best_x, best_res = state
        val, slope = got[:2]
        kept = got[2] if len(got) > 2 else None
        res = val - tgt
        better = abs(res) < abs(best_res) if calls > 1 else np.ones(len(i), bool)
        best_x[better], best_res[better] = x[better], res[better]
        if kept is not None:
            best_kept = kept if best_kept is None else np.where(
                better[:, None], kept, best_kept)
            if out_kept is None:
                out_kept = np.full((n,) + kept.shape[1:], math.nan)
        up = res > 0.0
        lo[up], hi[~up] = x[up], x[~up]
        found = abs(res) <= _SOLVE_REL * tgt
        # or the bracket is exhausted at floating-point resolution
        stop = found | ((hi - lo <= 4.0 * _EPS * hi)
                        & (4.0 * _EPS * hi < math.inf))
        if np.count_nonzero(stop):
            done = i[stop]
            out_x[done] = np.where(found, x, best_x)[stop]
            out_res[done] = np.where(found, res, best_res)[stop]
            if kept is not None:
                out_kept[done] = np.where(found[:, None], kept,
                                          best_kept)[stop]
            go = ~stop
            keep(go)
            val, slope, res = val[go], slope[go], res[go]
            x, lo, hi, tgt = state[:4]
        log_slope = np.divide(x * slope, val, out=np.zeros(len(x)),
                              where=val > 0.0)
        step = np.where(res > 0.0, _MAX_LOG_STEP, -_MAX_LOG_STEP)
        newton = log_slope < 0.0
        if np.count_nonzero(newton):
            step[newton] = np.minimum(np.maximum(
                (np.log(tgt[newton]) - np.log(val[newton])) / log_slope[newton],
                -_MAX_LOG_STEP), _MAX_LOG_STEP)
        x_new = x * np.exp(step)
        mid = (lo > 0.0) & (hi < math.inf) & ~((lo < x_new) & (x_new < hi))
        if np.count_nonzero(mid):
            x_new[mid] = np.sqrt(lo[mid] * hi[mid])
        out = ~((x_new >= _X_MIN) & (x_new <= _X_MAX))
        if np.count_nonzero(out):
            edge = np.where(x_new < _X_MIN, _X_MIN, _X_MAX)
            stuck = out & (x == edge)
            for k in stuck.nonzero()[0].tolist():
                where = "vanishes" if edge[k] == _X_MIN else "grows"
                errors[i[k]] = NoSolutionError(
                    f"constraint stays {'below' if res[k] < 0.0 else 'above'} "
                    f"target {float(tgt[k])} as the cutoff {where}; "
                    f"value {float(val[k])} at {float(x[k])}")
            x_new[out] = edge[out]
            if np.count_nonzero(stuck):
                x_new = x_new[~stuck]
                keep(~stuck)
        state[0] = x_new
    for k in range(len(i)):
        errors[i[k]] = ConvergenceError(
            f"root refinement did not reach |residual| <= {_SOLVE_REL}·"
            f"{float(state[3, k])} in {_MAX_EVALS} evaluations; last "
            f"x={float(state[0, k])}, residual={float(state[5, k])}")
    return Roots(out_x, out_res, calls, evals, out_kept, errors)
