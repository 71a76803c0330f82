"""Adaptive Gauss–Kronrod quadrature, tabulated survival integrals and a
safeguarded Newton root finder.

The integrators expect vectorized integrands (ndarray in, ndarray out) and
return a (value, error_estimate) pair. A semi-infinite range [t, ∞) is
mapped onto (0, 1] by the single substitution x = t/u (with u = v⁴), which
turns the power-law tails of the gain-ratio distributions into smooth
endpoint behavior without a hand-derived truncation bound. SurvivalTable
answers the two tail integrals of one survival function at any lower
limit from panels built once.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import Callable, Tuple

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


def _horner(c, u: float) -> float:
    """Σ c_i·u^(n−1−i) for the n coefficients c, highest degree first."""
    value = 0.0
    for a in c:
        value = value * u + a
    return value


def _horner_slope(c, u: float) -> Tuple[float, float]:
    """_horner's polynomial and its derivative in u."""
    value = slope = 0.0
    for a in c:
        slope = slope * u + value
        value = value * u + a
    return value, slope


_TABLE_REL = 1e-13      # panel error bound, relative to the integral to its right
_TABLE_ABS = 1e-313     # ... or absolute, where that integral underflows
_TABLE_GRID = np.arange(-300.0, 49.0, 4.0)  # extent search in s = ln y
_TABLE_MAX_PANELS = 20000
_TABLE_MAX_SPLIT = 16
_TABLE_CALL = 128       # panels per base call, to bound its working memory
_TABLE_BLOCK = 2048     # panels per block of a build round, to bound its memory
_TABLE_EVAL = 512       # new panels per evaluation in a round, likewise


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

    def values(self, law, rows: np.ndarray) -> np.ndarray:
        """Both integrands in s, S·e^{−s} and S with S = law(base), at the
        nodes of the panels in rows: an array (2, panels, 15)."""
        q = self.q[rows]
        f = np.empty((2,) + q.shape)
        f[1] = law(q)
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
    form. Beyond s_hi, a G is one semi-infinite integral from τ, taken in
    y/τ so that S/y² does not underflow before S does (S counts as 0 past
    the largest double): from e^{s_hi} once at the build, and from τ at a
    query past s_hi. Where S is 0 at s_hi both are 0, with no quadrature,
    as they are at τ = ∞. The panels in between are split in
    rounds until each panel's G7/K15 difference is at most 1e-13 of the
    integral from its left edge to infinity (or 1e-313 where that
    underflows). A query finds the panel holding ln τ by one bisect and
    adds the integral over the panels to its right, a cumulative sum, to
    the one over its partial panel. That one, S and its slope are read by
    Horner's rule from the degree-14 interpolant through the panel's 15
    node values, in monomial form (_panel).

    The table of S = law(Q) reads the base Q from a node store that the
    tables of one batch share (_survival_tables). A built table holds its
    panels' rows in that store and their cumulative sums, which the last
    round of its build formed; a panel's polynomials are formed from its
    row when a query first lands in it, and kept.
    """

    def __init__(self, nodes: _Nodes, law: Callable[[np.ndarray], np.ndarray]):
        self._nodes, self._law = nodes, law
        at = law(nodes.grid)
        ones = np.flatnonzero(at == 1.0)
        zeros = np.flatnonzero(at == 0.0)
        edges = _TABLE_GRID[ones[-1] if ones.size else 0:
                            zeros[0] + 1 if zeros.size else len(at)]
        if len(edges) < 2:
            raise ValueError("survival function has no transition on the grid")
        self.s_lo, self.s_hi = float(edges[0]), float(edges[-1])
        self._open = not zeros.size         # S > 0 at s_hi
        self._edges, self._panels = None, {}     # formed by queries

    def _beyond(self, tau: float, power: int) -> Tuple[float, float]:
        """∫_τ^∞ S(y)/y^power dy for τ ≥ e^{s_hi} and its error estimate,
        as τ^(1−power)·∫_1^∞ S(τz)/z^power dz."""
        if not self._open or tau == math.inf:
            return 0.0, 0.0
        law, base, scale = self._law, self._nodes.base, tau ** (1 - power)
        with np.errstate(over="ignore"):    # τ·z = inf, where S is 0
            val, err = integrate_to_inf(
                lambda z: law(base(tau * z)) / z ** power, 1.0, 0.0, _TABLE_REL)
        return val * scale, err * scale

    def _panel(self, j: int) -> tuple:
        """Panel j [a, b] as (a, b, S, parts, rights), formed at its first
        touch and kept. S is the interpolant of S in u = (2s − a − b)/(b − a),
        parts the integrals in s of the G2 and G1 integrands from u to b,
        each a list of monomial coefficients in u, highest degree first, for
        _horner; rights holds G2 and G1 at b."""
        panel = self._panels.get(j)
        if panel is None:
            f = self._nodes.values(self._law, self._rows[j:j + 1])[:, 0]
            # where S >= 1/2 on the panel, S − 1 is exact, and its polynomial
            # keeps the digits of the slope that the one of S would round off
            lead = f[1].min() >= 0.5
            if lead:
                f[1] -= 1.0
            # the Legendre series first: converting the values in one product
            # would cancel entries of order 1e4 and keep 1e-12 of the values
            c = f @ _LEG_FROM_NODES @ _MONO_FROM_LEG   # (G2, G1) in u⁰..u¹⁴
            if lead:
                c[1, 0] += 1.0
            a, b = float(self._lo[j]), float(self._hi[j])
            # ∫_u^1 u'^k du' = (1 − u^(k+1))/(k + 1), and ds = (b − a)/2·du
            q = 0.5 * (b - a) * c / np.arange(1.0, 16.0)
            parts = np.concatenate([-q[:, ::-1], q.sum(axis=1)[:, None]], axis=1)
            panel = (a, b, c[1, ::-1].tolist(), parts.tolist(),
                     self._right[:, j + 1].tolist())
            self._panels[j] = panel
        return panel

    def _find(self, s: float) -> int:
        """The panel holding s_lo <= s < s_hi, a knot taking the panel to its
        left."""
        if self._edges is None:
            self._edges = self._lo.tolist()
        return max(bisect.bisect_left(self._edges, s) - 1, 0)

    def point(self, tau: float, g2: bool = False) -> Tuple[float, float, float]:
        """S(τ), dS/ds (s = ln τ) and, if g2, G2(τ) at one τ >= 0 from one
        panel lookup; G2 is nan when not asked for. Below s_lo, S is 1 and
        its slope 0; past a closed s_hi all three are 0, and past an open
        one S is the law and its slope −m·S, m read at s_hi."""
        if not tau >= 0.0:                      # NaN fails the comparison too
            raise ValueError(f"tau must be numbers >= 0, got {tau}")
        s = math.log(tau) if tau > 0.0 else -math.inf
        if s < self.s_lo:
            head = 1.0 / tau - math.exp(-self.s_lo) if tau > 0.0 else math.inf
            return 1.0, 0.0, float(self._right[0, 0]) + head if g2 else math.nan
        if s >= self.s_hi:
            if not self._open:
                return 0.0, 0.0, 0.0 if g2 else math.nan
            a, b, sc, *_ = self._panel(len(self._lo) - 1)
            end, rate = _horner_slope(sc, 1.0)
            sf = float(self._law(self._nodes.base(np.array([tau])))[0])
            return (sf, 2.0 * rate / (end * (b - a)) * sf,
                    self._beyond(tau, 2)[0] if g2 else math.nan)
        j = self._find(s)
        a, b, sc, parts, rights = self._panel(j)
        u = (2.0 * s - a - b) / (b - a)
        sf, slope = _horner_slope(sc, u)
        return (sf, 2.0 * slope / (b - a),
                rights[0] + _horner(parts[0], u) if g2 else math.nan)

    def survival(self, tau) -> Tuple[np.ndarray, np.ndarray]:
        """S(τ) and dS/ds at each of the points tau, by point."""
        tau = np.asarray(tau, dtype=float).reshape(-1)
        out = np.array([self.point(t)[:2] for t in tau.tolist()]).reshape(-1, 2)
        return out[:, 0], out[:, 1]

    def integral(self, tau: float, power: int) -> Tuple[float, float]:
        """∫_τ^∞ S(y)/y^power dy for power 1 (G1) or 2 (G2), and its error
        estimate."""
        if power not in (1, 2):
            raise ValueError(f"power must be 1 or 2, got {power}")
        if math.isnan(tau):
            raise ValueError("tau must be a number, got nan")
        if tau <= 0.0:
            return math.inf, 0.0
        row = 0 if power == 2 else 1            # rows are (G2, G1)
        s = math.log(tau)
        if s >= self.s_hi:
            return self._beyond(tau, power)
        if s < self.s_lo:
            head = (1.0 / tau - math.exp(-self.s_lo) if row == 0
                    else self.s_lo - s)
            return self._right[row, 0] + head, self._right_err[row, 0]
        j = self._find(s)
        a, b, _, parts, rights = self._panel(j)
        u = (2.0 * s - a - b) / (b - a)
        return rights[row] + _horner(parts[row], u), self._right_err[row, j]

    def inverse_g2(self, value: float) -> float:
        """The τ where G2 = value > 0, estimated without a query: closed
        form below s_lo, and in between where ln G2, linear in s between the
        panel edges, meets ln value (G2 itself where it falls to 0 at a
        closed s_hi). Past s_hi it is e^{s_hi}."""
        if not value >= 0.0:                    # NaN fails the comparison too
            raise ValueError(f"value must be a number >= 0, got {value}")
        right = self._right[0]
        if value >= right[0]:
            return 1.0 / (value - float(right[0]) + math.exp(-self.s_lo))
        i = int(np.searchsorted(-right, -value))    # right[i-1] > value >= right[i]
        if i == len(right):
            return math.exp(self.s_hi)
        a, b, ra, rb = self._lo[i - 1], self._hi[i - 1], right[i - 1], right[i]
        w = ((ra - value) / (ra - rb) if rb == 0.0
             else math.log(ra / value) / math.log(ra / rb))
        return math.exp(a + (b - a) * w)


def _survival_tables(base: Callable[[np.ndarray], np.ndarray],
                     laws) -> list:
    """One SurvivalTable of S = law(base(y)) per law, all on one node
    store, built in rounds (_build_round) over blocks of about _TABLE_BLOCK
    panels. Every law must map base values to S elementwise; provided the
    base is elementwise too, a table is the same, bit for bit, whatever
    else is in its batch."""
    nodes = _Nodes(base)
    tables = [SurvivalTable(nodes, law) for law in laws]
    # the integrals past s_hi: (tables, G2 or G1, value or error)
    tails = np.array([[t._beyond(math.exp(t.s_hi), p) for p in (2, 1)]
                      for t in tables])
    grid = [_TABLE_GRID[(_TABLE_GRID >= t.s_lo) & (_TABLE_GRID <= t.s_hi)]
            for t in tables]
    rows = nodes.rows(np.concatenate([g[:-1] for g in grid]),
                      np.concatenate([g[1:] for g in grid]))
    # per live table: node rows, which panels are new, and sums (4, panels):
    # the K15 values of the G2 and G1 integrands, then their G7/K15 errors
    state = {t: (r, np.ones(len(r), bool), np.empty((4, len(r))))
             for t, r in enumerate(np.split(
                 rows, np.cumsum([len(g) - 1 for g in grid])[:-1]))}
    while state:
        live = np.array(list(state))
        size = np.array([len(state[t][0]) for t in live])
        for block in np.split(live, np.flatnonzero(np.diff(
                (np.cumsum(size) - size) // _TABLE_BLOCK)) + 1):
            _build_round(nodes, tables, tails[block], block, state)
    return tables


def _build_round(nodes: _Nodes, tables: list, tails: np.ndarray,
                 block: np.ndarray, state: dict) -> None:
    """One round for the tables in block: their partitions, taken from
    state into one array ordered by (table, s), get the sums of their new
    panels, _TABLE_EVAL at a time with one call of each law, and the sums
    from every panel on. A table with no panel over its bound receives its
    partition and sums; in the others each such panel is split in place."""
    parts = [state.pop(t) for t in block]
    n = np.array([len(p[0]) for p in parts])
    rows, new, sums = (np.concatenate(p, axis=-1) for p in zip(*parts))
    lo, hi, end, tab = (nodes.lo[rows], nodes.hi[rows], np.cumsum(n),
                        np.repeat(np.arange(len(n)), n))
    new = np.flatnonzero(new)
    for c in range(0, len(new), _TABLE_EVAL):
        p = new[c:c + _TABLE_EVAL]
        e = [0, *(np.flatnonzero(np.diff(tab[p])) + 1).tolist(), len(p)]
        f = np.concatenate([nodes.values(tables[block[tab[p[i]]]]._law,
                                         rows[p[i:j]])
                            for i, j in zip(e, e[1:])], axis=1)
        sums[:, p] = np.concatenate(_panel_sums(f, lo[p], hi[p]))
    # the sums from each panel on: one cumsum along zero-padded rows that
    # hold a table's tail and then its panels from the last one down, the
    # order in which the table's own cumsum would add them
    width = n.max() + 1
    at = np.repeat(np.arange(len(n)) * width + end, n) - np.arange(len(rows))
    pad = np.zeros((2, len(n) * width))
    pad[:, ::width] = tails[:, :, 0].T
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
    more = np.bincount(tab[bad], k, len(n))
    if (n + more > _TABLE_MAX_PANELS).any():
        raise ConvergenceError(
            f"survival table did not reach tolerance in "
            f"{_TABLE_MAX_PANELS} panels")
    for t in np.flatnonzero(more == 0):     # the partition is final
        table, cut = tables[block[t]], slice(end[t] - n[t], end[t])
        table._rows, table._lo, table._hi = (v[cut].copy()
                                             for v in (rows, lo, hi))
        table._right = right[:, t, n[t]::-1].copy()
        table._right_err = np.cumsum(np.concatenate(
            [tails[t, :, 1:], sums[2:, cut][:, ::-1]], 1), axis=1)[:, ::-1]
    if not more.any():
        return
    copies = (more > 0)[tab].astype(int)    # 1 per panel kept, k per split
    copies[bad] = k
    at = np.repeat(np.arange(len(rows)), copies)
    i = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
    kk, a, b = np.repeat(k, k), np.repeat(lo[bad], k), np.repeat(hi[bad], k)
    new, rows, sums, tab = bad[at], rows[at], sums.take(at, axis=1), tab[at]
    rows[new] = nodes.rows(a + (b - a) * (i / kk), np.where(
        i + 1 == kk, b, a + (b - a) * ((i + 1) / kk)))
    size = np.bincount(tab, minlength=len(n))
    for t, stop in zip(np.flatnonzero(more), np.cumsum(size)[more > 0]):
        cut = slice(stop - size[t], stop)
        state[block[t]] = rows[cut], new[cut], sums[:, cut]


def solve_decreasing(g: Callable[[float], Tuple[float, float]], target: float,
                     x0: float = 1.0) -> Tuple[float, float, int]:
    """Solve g(x) = target > 0 for positive, strictly decreasing g on
    [1e-14, 1e14].

    g returns (value, derivative). Newton steps act on ln g against ln x,
    which is exact for power laws such as 1/x. The tightest bracket seen is
    kept; a step that leaves it is replaced by the geometric midpoint, and
    any step moves x by at most a factor of 100. Stops when
    |g(x) − target| <= 1e-10·target. Returns (x, residual, evaluations)
    with residual = g(x) − target. Raises NoSolutionError when the root
    lies outside the domain.
    """
    lo, hi = 0.0, math.inf
    x = min(max(x0, _X_MIN), _X_MAX)
    best = None
    for evals in range(1, _MAX_EVALS + 1):
        val, slope = g(x)
        res = val - target
        if best is None or abs(res) < abs(best[1]):
            best = (x, res)
        if abs(res) <= _SOLVE_REL * target:
            return x, res, evals
        if res > 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= 4.0 * _EPS * hi < math.inf:
            # bracket exhausted at floating-point resolution
            return best[0], best[1], evals
        log_slope = x * slope / val if val > 0.0 else 0.0
        if log_slope < 0.0:
            step = (math.log(target) - math.log(val)) / log_slope
            x_new = x * math.exp(max(-_MAX_LOG_STEP, min(_MAX_LOG_STEP, step)))
        else:
            x_new = x * math.exp(_MAX_LOG_STEP if res > 0.0 else -_MAX_LOG_STEP)
        if lo > 0.0 and hi < math.inf and not lo < x_new < hi:
            x_new = math.sqrt(lo * hi)
        if not _X_MIN <= x_new <= _X_MAX:
            edge = _X_MIN if x_new < _X_MIN else _X_MAX
            if x == edge:
                where = "vanishes" if edge == _X_MIN else "grows"
                raise NoSolutionError(
                    f"constraint stays {'below' if res < 0.0 else 'above'} "
                    f"target {target} as the cutoff {where}; value {val} at {x}")
            x_new = edge
        x = x_new
    raise ConvergenceError(
        f"root refinement did not reach |residual| <= {_SOLVE_REL}·{target} in "
        f"{_MAX_EVALS} evaluations; last x={x}, residual={best[1]}"
    )
