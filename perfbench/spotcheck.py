"""Independent spot-check of the frozen reference table with scipy.

Shares no code with crlink. The base laws come from scipy.special
(``gammainc``/``gammaincc`` for the direct link, ``betainc`` for the gain
ratio), every integral is ``scipy.integrate.quad`` in survival-function
form, and every cutoff is a ``scipy.optimize.brentq`` root. With
S(x) = 1 - F(x)^L the survival function of the best-of-L SNR and t = g/K:

    power(g)  = (1/K) * int_t^inf S(x)/x^2 dx
    rate(g,K) = log2(e) * int_t^inf S(x)/x dx
    dr power  = sum_j (M_j-1)/g* * P_j - (1/K) * (S(b_1)/b_1 - int_{b_1}^inf S/x^2 dx)
    se_dr     = sum_j log2(M_j) * P_j,   P_j = S(b_j) - S(b_{j+1}),  b_j = M_j g*

Run from the repository root:

    python3 perfbench/spotcheck.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import yaml
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import betainc, gammainc, gammaincc

HERE = Path(__file__).resolve().parent
REL_TOL = 1e-8
SIZES = (4, 8, 16, 64)

# (workload, axis value, users, m): both links, integer and non-integer m,
# L from 1 to 20, both ends of each axis
POINTS = (
    ("ss_fig4", -10.0, 5, 1.0),
    ("ss_fig4", 10.0, 15, 2.0),
    ("ss_fig4", 0.0, 15, 1.0),
    ("osa_users", 1.0, 1, 0.5),
    ("osa_users", 7.0, 7, 1.5),
    ("osa_users", 20.0, 20, 2.5),
)


def _db(v: float) -> float:
    return 10.0 ** (v / 10.0)


class Point:
    def __init__(self, cfg: dict, axis_value: float, users: int, m: float):
        p_db = axis_value if cfg["axis"] == "p_av_db" else cfg["p_av_db"]
        q_db = axis_value if cfg["axis"] == "q_av_db" else cfg.get("q_av_db", 0.0)
        self.ratio = cfg["mode"] == "ss"
        self.scale = _db(p_db)
        self.budget = _db(q_db) / _db(p_db) if self.ratio else 1.0
        self.users = users
        self.m = m
        self.k = -1.5 / math.log(5.0 * cfg["ber_target"])

    def base_survival(self, x: float) -> float:
        if self.ratio:
            return betainc(self.m, self.m, self.scale / (self.scale + x))
        return gammaincc(self.m, self.m * x / self.scale)

    def base_cdf(self, x: float) -> float:
        if self.ratio:
            return betainc(self.m, self.m, x / (self.scale + x))
        return gammainc(self.m, self.m * x / self.scale)

    def survival(self, x: float) -> float:
        """1 - F^L, from whichever of F and 1-F keeps its digits."""
        f = self.base_cdf(x)
        if f < 0.5:
            return -math.expm1(self.users * math.log(f)) if f > 0.0 else 1.0
        q = self.base_survival(x)
        return -math.expm1(self.users * math.log1p(-q))

    def _int(self, power: int, t: float) -> float:
        """int_t^inf S(x)/x^power dx: quad on [t, c], then x = c/u."""
        c = max(2.0 * t, 8.0 * self.scale)
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=400)
        head = quad(lambda x: self.survival(x) / x ** power, t, c, **opts)[0]
        # int_c^inf S(x)/x^p dx = int_0^1 S(c/u) u^(p-2) / c^(p-1) du
        tail = quad(lambda u: self.survival(c / u) * u ** (power - 2),
                    0.0, 1.0, **opts)[0] / c ** (power - 1)
        return head + tail

    def _root(self, spent) -> float:
        lo, hi = 1e-3, 10.0
        while spent(lo) < self.budget:
            lo /= 4.0
        while spent(hi) > self.budget:
            hi *= 4.0
        return brentq(lambda g: spent(g) - self.budget, lo, hi,
                      xtol=1e-300, rtol=1e-15, maxiter=300)

    def cutoff(self, k: float) -> float:
        return self._root(lambda g: self._int(2, g / k) / k)

    def rate(self, g: float, k: float) -> float:
        return self._int(1, g / k) / math.log(2.0)

    def _regions(self, gs: float):
        edges = [mj * gs for mj in SIZES]
        s = [self.survival(b) for b in edges] + [0.0]
        return edges, [s[j] - s[j + 1] for j in range(len(SIZES))]

    def dr_spent(self, gs: float) -> float:
        edges, probs = self._regions(gs)
        b1 = edges[0]
        direct = math.fsum((mj - 1.0) / gs * p for mj, p in zip(SIZES, probs))
        return direct - (self.survival(b1) / b1 - self._int(2, b1)) / self.k

    def columns(self) -> dict:
        g_cap = self.cutoff(1.0)
        g_cr = self.cutoff(self.k)
        g_dr = self._root(self.dr_spent)
        _, probs = self._regions(g_dr)
        return {"capacity": self.rate(g_cap, 1.0),
                "se_cr": self.rate(g_cr, self.k),
                "se_dr": math.fsum(math.log2(mj) * p
                                   for mj, p in zip(SIZES, probs)),
                "gamma0_cap": g_cap, "gamma0_cr": g_cr, "gamma_star_dr": g_dr}


def spot_check(points=POINTS):
    """[(point, column, reference, scipy value, relative gap)]."""
    ref = json.loads((HERE / "data" / "reference.json").read_text())
    out = []
    for workload, axis_value, users, m in points:
        cfg = yaml.safe_load((HERE / "configs" / f"{workload}.cfg").read_text())
        row = next(r for r in ref[workload] if (r["axis"], r["ns"], r["m"])
                   == (axis_value, users, m))
        got = Point(cfg, axis_value, users, m).columns()
        for col, value in got.items():
            gap = abs(value - row[col]) / abs(row[col])
            out.append(((workload, axis_value, users, m), col, row[col],
                        value, gap))
    return out


def main() -> int:
    rows = spot_check()
    for point, col, want, got, gap in rows:
        flag = "" if gap <= REL_TOL else "  FAIL"
        print(f"{str(point):<32}{col:<15}{want:>22.15g}{got:>22.15g}"
              f"{gap:>10.2e}{flag}")
    worst = max(r[4] for r in rows)
    print(f"largest relative gap {worst:.2e} (tolerance {REL_TOL:g})")
    return 0 if worst <= REL_TOL else 1


if __name__ == "__main__":
    sys.exit(main())
