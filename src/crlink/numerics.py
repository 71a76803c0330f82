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

_TABLE_REL = 1e-13      # panel error bound, relative to the integral to its right
_TABLE_ABS = 1e-313     # ... or absolute, where that integral underflows
_TABLE_GRID = np.arange(-300.0, 49.0, 4.0)  # extent search in s = ln y
_TABLE_MAX_PANELS = 20000
_TABLE_MAX_SPLIT = 16
_TABLE_CALL = 128       # panels per base call, to bound its working memory


def _node_y(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """y = e^s at the 15 Kronrod nodes of each panel [lo, hi] in s: an
    array (panels, 15)."""
    return np.exp(0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _NODES)


def _panel_sums(f: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """K15 values and |K15 − G7| of both integrands from their values f
    (2, panels, 15): arrays (2, panels). The sums over the nodes are
    reductions, whose rows do not depend on how many rows there are."""
    half = 0.5 * (hi - lo)
    g7 = half * (f[:, :, _GAUSS_IDX] * _WGL).sum(axis=-1)
    weighted = f * _WK
    k15 = half * weighted.sum(axis=-1)
    np.abs(weighted, out=weighted)
    floor = 50.0 * _EPS * half * weighted.sum(axis=-1)
    return k15, np.maximum(np.abs(k15 - g7), floor)


def _right_sums(vals, tail):
    """Σ_{i ≥ j} vals[:, i] + tail for each j, with the tail alone last."""
    ext = np.concatenate([vals, np.array(tail, dtype=float)[:, None]], axis=1)
    return np.cumsum(ext[:, ::-1], axis=1)[:, ::-1]


class _Nodes:
    """A base function at the Kronrod nodes of every distinct panel that a
    batch of tables asks for, each evaluated once; two tables share a
    panel when its edges are the same floats. Row r holds the panel
    [lo[r], hi[r]] and the base at its nodes, q[r]."""

    def __init__(self, base: Callable[[np.ndarray], np.ndarray]):
        self.base = base
        self.grid = np.asarray(base(np.exp(_TABLE_GRID)), dtype=float)
        self.lo = self.hi = np.empty(0)
        self.q = np.empty((0, len(_NODES)))

    def rows(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The rows of the panels [lo, hi]; the base is evaluated at the
        nodes of the panels not seen before, _TABLE_CALL panels a call."""
        known = len(self.lo)
        every_lo = np.concatenate([self.lo, lo])
        every_hi = np.concatenate([self.hi, hi])
        # equal panels fall together, each known row ahead of its copies
        order = np.lexsort((every_hi, every_lo))
        ends = np.empty(len(order), dtype=bool)
        ends[0] = True
        ends[1:] = ((every_lo[order[1:]] != every_lo[order[:-1]])
                    | (every_hi[order[1:]] != every_hi[order[:-1]]))
        lead = order[ends]                  # the first of each set of equals
        fresh = lead >= known
        row = np.where(fresh, known + np.cumsum(fresh) - 1, lead)
        rows = np.empty(len(order), dtype=np.intp)
        rows[order] = row[np.cumsum(ends) - 1]
        new = lead[fresh]
        if len(new):
            self.lo = np.concatenate([self.lo, every_lo[new]])
            self.hi = np.concatenate([self.hi, every_hi[new]])
            self.q = np.concatenate([self.q] + [
                np.asarray(self.base(y.ravel()), dtype=float).reshape(y.shape)
                for y in (_node_y(self.lo[i:i + _TABLE_CALL],
                                  self.hi[i:i + _TABLE_CALL])
                          for i in range(known, len(self.lo), _TABLE_CALL))])
        return rows[known:]

    def values(self, law, rows: np.ndarray) -> np.ndarray:
        """Both integrands in s, S·e^{−s} and S with S = law(base), at the
        nodes of the panels in rows: an array (2, panels, 15)."""
        q = self.q[rows]
        f = np.empty((2,) + q.shape)
        f[1] = law(q)
        np.divide(f[1], _node_y(self.lo[rows], self.hi[rows]), out=f[0])
        return f


class SurvivalTable:
    """The two tail integrals of a survival function S on (0, ∞),

        G2(τ) = ∫_τ^∞ S(y)/y² dy,   G1(τ) = ∫_τ^∞ S(y)/y dy,

    tabulated once so that any τ > 0 is answered without evaluating S.

    Both are integrals in s = ln y, of S·e^{−s} and of S. The table spans
    [s_lo, s_hi], the last point of the grid −300, −296, ..., 48 where S
    rounds to 1 and the first where it is 0 (or 48). Below s_lo, S is
    taken as 1, dropping 1 − S < 1.2e-16, and the integrals are closed
    form. Beyond s_hi, one semi-infinite integral of S per G is computed
    at the build; a τ beyond s_hi is answered by the integral from τ, taken
    in y/τ so that S/y² does not underflow before S does (S counts as 0
    past the largest double). Where S is 0 at s_hi both are 0, with no
    quadrature, as they are at τ = ∞. The panels in between are split in
    rounds until each panel's G7/K15 difference is at most 1e-13 of the
    integral from its left edge to infinity (or 1e-313 where that
    underflows). A query adds the integral over the panels to its right, a
    cumulative sum, to the one over its partial panel, read from the
    Legendre series of the degree-14 interpolant through that panel's 15
    node values.

    The table of S = law(Q) reads the base Q from a node store that the
    tables of one batch share (_survival_tables). A built table holds its
    panels' rows in that store and the cumulative sums of its last build
    round; the series are derived from those rows at its first query
    inside [s_lo, s_hi).
    """

    def __init__(self, nodes: _Nodes, law: Callable[[np.ndarray], np.ndarray]):
        self._nodes, self._law, self._coef = nodes, law, None
        at = law(nodes.grid)
        ones = np.flatnonzero(at == 1.0)
        zeros = np.flatnonzero(at == 0.0)
        edges = _TABLE_GRID[ones[-1] if ones.size else 0:
                            zeros[0] + 1 if zeros.size else len(at)]
        if len(edges) < 2:
            raise ValueError("survival function has no transition on the grid")
        self.s_lo, self.s_hi = float(edges[0]), float(edges[-1])
        self._tail = np.zeros((2, 2))       # (value, error) × (G2, G1)
        self._open = not zeros.size         # S > 0 at s_hi
        if self._open:
            for which, fn in enumerate(self._integrands()):
                self._tail[:, which] = integrate_to_inf(fn, math.exp(self.s_hi),
                                                        0.0, _TABLE_REL)
        self._rows = np.empty(0, dtype=np.intp)
        self._new = edges[:-1], edges[1:]   # the panels the next round adds

    def _split(self, new_rows: np.ndarray) -> bool:
        """One round of the build: merge the panels of new_rows in and
        split every panel that misses its error bound into the panels of
        the next round. False once no panel splits."""
        nodes = self._nodes
        rows = np.concatenate([self._rows, new_rows])
        rows = rows[np.argsort(nodes.lo[rows], kind="stable")]
        lo, hi = nodes.lo[rows], nodes.hi[rows]
        vals, errs = _panel_sums(nodes.values(self._law, rows), lo, hi)
        right = _right_sums(vals, self._tail[0])
        excess = (errs / np.maximum(_TABLE_REL * right[:, :-1],
                                    _TABLE_ABS)).max(axis=0)
        bad = (excess > 1.0) & (hi - lo > 1e-12)
        self._rows = rows[~bad]
        if not bad.any():               # the partition is final: keep its sums
            del self._new
            self._lo, self._hi, self._right = lo, hi, right
            self._right_err = _right_sums(errs, self._tail[1])
            return False
        # about excess^(1/10) pieces: the G7 error falls as width^14 once a
        # panel resolves S, and a slower guess splits one that does not yet
        # resolve it finely enough in a single round
        k = np.clip(np.ceil(excess[bad] ** (1.0 / 10.0)), 2,
                    _TABLE_MAX_SPLIT).astype(int)
        if len(rows) + k.sum() > _TABLE_MAX_PANELS:
            raise ConvergenceError(
                f"survival table did not reach tolerance in "
                f"{_TABLE_MAX_PANELS} panels")
        i = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
        kk, a, b = np.repeat(k, k), np.repeat(lo[bad], k), np.repeat(hi[bad], k)
        self._new = (a + (b - a) * (i / kk),
                     np.where(i + 1 == kk, b, a + (b - a) * ((i + 1) / kk)))
        return True

    def _integrands(self):
        law, base = self._law, self._nodes.base
        return (lambda y: law(base(y)) / (y * y), lambda y: law(base(y)) / y)

    def _derive(self) -> None:
        f = self._nodes.values(self._law, self._rows)
        self._coef = f @ _LEG_FROM_NODES        # (2, panels, 15) Legendre series
        self._edges = self._lo.tolist()

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
            if not self._open or tau == math.inf:
                return 0.0, 0.0
            law, base, scale = self._law, self._nodes.base, tau ** (1 - power)
            with np.errstate(over="ignore"):    # τ·z = inf, where S is 0
                val, err = integrate_to_inf(
                    lambda z: law(base(tau * z)) / z ** power, 1.0, 0.0,
                    _TABLE_REL)
            return val * scale, err * scale
        if s < self.s_lo:
            head = (1.0 / tau - math.exp(-self.s_lo) if row == 0
                    else self.s_lo - s)
            return self._right[row, 0] + head, self._right_err[row, 0]
        if self._coef is None:
            self._derive()
        j = bisect.bisect_right(self._edges, s) - 1
        a, b = self._lo[j], self._hi[j]
        u = (2.0 * s - a - b) / (b - a)
        # ∫_u^1 P_k = (P_{k−1}(u) − P_{k+1}(u))/(2k+1), and 1 − u for k = 0
        p = [1.0, u]
        for k in range(1, 15):
            p.append(((2 * k + 1) * u * p[k] - k * p[k - 1]) / (k + 1))
        w = [1.0 - u] + [(p[k - 1] - p[k + 1]) / (2 * k + 1) for k in range(1, 15)]
        part = 0.5 * (b - a) * float(np.dot(self._coef[row, j], w))
        return self._right[row, j + 1] + part, self._right_err[row, j]


def _survival_tables(base: Callable[[np.ndarray], np.ndarray],
                     laws) -> list:
    """One SurvivalTable of S = law(base(y)) per law, all on one node
    store.

    Every law must map base values to S elementwise. The tables are built
    in lockstep: each round evaluates the base once, only at the nodes of
    the panels that no table has asked for before, and then each table
    refines its own partition. Provided the base is elementwise too, a
    table is the same, bit for bit, whatever else is in its batch.
    """
    nodes = _Nodes(base)
    tables = [SurvivalTable(nodes, law) for law in laws]
    live = tables
    while live:
        rows = nodes.rows(np.concatenate([t._new[0] for t in live]),
                          np.concatenate([t._new[1] for t in live]))
        cuts = np.cumsum([len(t._new[0]) for t in live])[:-1]
        live = [t for t, r in zip(live, np.split(rows, cuts)) if t._split(r)]
    return tables


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
