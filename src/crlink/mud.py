"""Best-of-L selection: order statistics of the strongest user SNR.

With L i.i.d. users the selected SNR is the maximum, with density
L·f(x)·F(x)^{L-1}, CDF F(x)^L and survival function S(x) = 1 − F(x)^L.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

import numpy as np

from .fading import FadingSpec, LinkKind, SnrDistribution, _best_draws
from .numerics import _survival_tables


def _is_number(v) -> bool:
    """A real number that is not a boolean."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _whole_numbers(key: str, vals) -> Tuple[int, ...]:
    """vals as ints; a fraction, a boolean or a non-number fails naming key."""
    if not all(_is_number(v) and float(v).is_integer() for v in vals):
        raise ValueError(f"{key} takes whole numbers only, got {vals}")
    return tuple(int(v) for v in vals)


def _whole_number(key: str, value, low: int) -> int:
    """value as an int, refused naming key unless whole and >= low."""
    (n,) = _whole_numbers(key, (value,))
    if n < low:
        raise ValueError(f"{key} must be >= {low}, got {n}")
    return n


@dataclass(frozen=True)
class MudDistribution:
    """Distribution of the maximum SNR among num_users i.i.d. links.

    tables holds the survival tables that SurvivalQuery reads, keyed by
    (link, m, L); distributions that share the dict share a table. By
    default each distribution has its own.
    """

    base: SnrDistribution
    num_users: int
    tables: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "num_users",
                           _whole_number("num_users", self.num_users, 1))

    def pdf(self, x):
        return mud_pdf(self, x)

    def cdf(self, x):
        return mud_cdf(self, x)

    def sf(self, x):
        """1 − F(x)^L from the base survival (_best_of)."""
        return _best_of(self.base.sf(x), self.num_users)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return mud_sample(self, rng, n)

    def _table(self):
        """The SurvivalTable of S₁ (built unless the dict holds it) and γ̄."""
        key = (self.base.link, self.base.spec.m, self.num_users)
        if key not in self.tables:
            self.tables.update(_unit_tables(key[0], key[1], [key[2]]))
        return self.tables[key], self.base.spec.mean_snr


class SurvivalQuery:
    """The survival tables of several best-of-L laws, read together:
    element i of a query reads law which[i] at x[i]. Each law is the
    SurvivalTable of its S₁ and its scale γ̄, S(x) = S₁(x/γ̄); the elements
    are answered by one _Batch.query per batch that holds their tables,
    one in a sweep group. It is the one reader of the tables: a single
    law is a one-element SurvivalQuery. errors[d] holds the exception
    raised building the table of law d (None if it was built); such a law
    cannot be read.
    """

    def __init__(self, dists):
        self.errors, batches, where = [], {}, []
        for d in dists:
            try:
                table, g = d._table()
            except Exception as exc:
                self.errors.append(exc)
                where.append((-1, 0, math.nan))
                continue
            self.errors.append(None)
            b = batches.setdefault(id(table._batch), (len(batches), table._batch))
            where.append((b[0], table._index, g))
        self._batches = [b for _, b in batches.values()]
        batch, index, self._scale = zip(*where) if where else ((), (), ())
        self._batch, self._index = np.array(batch), np.array(index, dtype=int)
        self._scale = np.array(self._scale, dtype=float)

    def _read(self, name: str, which: np.ndarray, *args) -> tuple:
        """_Batch.name(table indices, *args) over the elements which, one
        call per batch."""
        if len(self._batches) == 1:
            return getattr(self._batches[0], name)(self._index[which], *args)
        outs = None
        on = self._batch[which]
        for b in dict.fromkeys(on.tolist()):
            i = np.flatnonzero(on == b)
            got = getattr(self._batches[b], name)(
                self._index[which[i]], *(a[i] if np.ndim(a) else a
                                         for a in args))
            got = got if isinstance(got, tuple) else (got,)
            if outs is None:
                outs = tuple(np.empty(on.shape + o.shape[1:]) for o in got)
            for o, v in zip(outs, got):
                o[i] = v
        return outs if len(outs) > 1 else outs[0]

    def __call__(self, which: np.ndarray, x: np.ndarray, power: int,
                 want: Optional[np.ndarray] = None) -> tuple:
        """S(x), f_max(x) = −(dS₁/ds)/x with s = ln(x/γ̄), and for power 1
        or 2 ∫_x^∞ S(y)/y^power dy and its error estimate (where want, if
        given), of law which[i] at x[i] >= 0; an element with no integral
        reads nan. f_max is 0 where S is flat, as below s_lo."""
        if np.count_nonzero(x >= 0.0) < len(x):     # NaN fails it too
            raise ValueError(f"x must be numbers >= 0, got {x}")
        g = self._scale[which]
        sf, slope, tail, err = self._read("query", which, x / g, power, want)
        if power == 2:
            tail, err = tail / g, err / g
        return (sf, np.divide(-slope, x, out=np.zeros(len(x)),
                              where=slope != 0.0), tail, err)

    def sf_integral_inverse(self, which: np.ndarray,
                            value: np.ndarray) -> np.ndarray:
        """An estimate of the x where ∫_x^∞ S(y)/y² dy = value[i] > 0 for
        law which[i]: γ̄·_Batch.inverse_g2(γ̄·value)."""
        g = self._scale[which]
        return g * self._read("inverse_g2", which, g * value)


def mud_pdf(d: MudDistribution, x):
    """L·f(x)·F(x)^{L-1}; exactly the base pdf for L=1."""
    f = d.base.pdf(x)
    F = d.base.cdf(x)
    return d.num_users * f * F ** (d.num_users - 1)


def mud_cdf(d: MudDistribution, x):
    """F(x)^L; exactly the base CDF for L=1."""
    return d.base.cdf(x) ** d.num_users


def _best_of(q, users: int):
    """The survival 1 − (1 − Q)^L of the best of L users from the base
    survival Q, as −expm1(L·log1p(−Q)) so the upper tail keeps full
    relative precision for any L."""
    return _best_of_log(_log_cdf(q), users)


def _log_cdf(q):
    """ln F = log1p(−Q) of the base CDF F from its survival Q."""
    with np.errstate(divide="ignore"):      # Q = 1: log1p is −inf, S is 1
        return np.log1p(-q)


def _best_of_log(log_cdf, users):
    """_best_of from ln F: −expm1(L·ln F), L a number or an array."""
    return -np.expm1(users * log_cdf)


def _unit_tables(link: LinkKind, m: float, users: Iterable[int]) -> dict:
    """The survival tables of the unit-scale best-of-L law for every L in
    users, keyed (link, m, L) as MudDistribution.tables is. They are built
    in one batch on ln F = log1p(−Q) of the base survival Q, evaluated once
    per node for all of them, and one law, S = −expm1(L·ln F)
    (_best_of_log), whose parameter is each table's L; each table equals
    its one-L build bit for bit. Where L·S₁ <= 2⁻⁵⁴, S is L·S₁ to
    rounding, so there each reads one table of S₁ (L = 1) times L
    (_survival_tables)."""
    users = list(users)
    sf = SnrDistribution(FadingSpec(1.0, m), link).sf
    tables = _survival_tables(lambda y: _log_cdf(sf(y)), _best_of_log, users,
                              tail=True)
    return {(link, m, L): t for L, t in zip(users, tables)}


def mud_sample(d: MudDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of the best-of-L SNR: columnwise maximum of L base draws."""
    return _best_draws(d.base, rng, d.num_users, n)
