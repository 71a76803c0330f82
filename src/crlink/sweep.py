"""Sweep driver: grid definition, per-point evaluation, CSV emission.

dB convention: the transmit-power axis scales the direct-link mean SNR
(opportunistic mode) or the ratio-link scale (sharing mode); the
interference-power axis sets the budget ratio Q/P. All dB values convert
as linear = 10^(dB/10). Output is a pure function of config plus seed.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .fading import LinkKind, SnrDistribution, nakagami
from .metrics import (_LOG2E, capacity, spectral_efficiency_cr,
                      spectral_efficiency_dr)
from .mud import (MudDistribution, SurvivalQuery, _is_number, _unit_tables,
                  _whole_number, _whole_numbers)
from .numerics import _apart
from .power import (ConstellationSet, ConstraintSpec, CutoffSolution, DrPolicy,
                    _DR, _policies, solve_cutoff, solve_cutoff_cr,
                    solve_dr_policy)

_MODES = ("osa", "ss")
_AXES = ("p_av_db", "q_av_db", "num_users")
_LINKS = {"osa": LinkKind.DIRECT, "ss": LinkKind.RATIO}
# the ratio- and direct-link laws are checked against mpmath to 1e-11 up to
# these shape factors (tests/test_fading.py); at m = 6000 the direct-link
# series runs out of terms inside the grid
_SS_MAX_M = 15.0
_OSA_MAX_M = 1000.0
# fewest draws per oracle estimate accepted from a user: below this a
# 3-sigma band is too loose to check anything
MIN_SAMPLES = 10 ** 5


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _finite_positive(what: str, value: float, got: str) -> float:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} must be finite and > 0 in linear terms, "
                         f"got {got}")
    return value


def _db_value(key: str, db: float) -> float:
    """db_to_linear(db), refused with the key named where it is not finite
    and > 0."""
    try:
        value = db_to_linear(db)
    except OverflowError:
        value = math.inf
    return _finite_positive(key, value, f"{db:g} dB")


@dataclass(frozen=True)
class SweepConfig:
    mode: str
    axis: str
    axis_range: Tuple[float, float, float]          # start, stop, step
    num_users: Tuple[int, ...] = (1,)
    m_values: Tuple[float, ...] = (1.0,)
    p_av_db: float = 0.0
    q_av_db: float = 0.0
    ber_target: float = 1e-3
    constellations: Tuple[int, ...] = (0, 4, 8, 16, 64)
    mc_validate: bool = False
    mc_samples: int = 1_000_000
    seed: int = 0
    output: str = "sweep.csv"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}, got {self.axis!r}")
        if self.mode == "osa" and self.axis == "q_av_db":
            raise ValueError("axis q_av_db applies to ss mode only")
        for key, vals in (("axis_range", self.axis_range), ("m", self.m_values),
                          ("p_av_db", (self.p_av_db,)),
                          ("q_av_db", (self.q_av_db,)),
                          ("ber_target", (self.ber_target,))):
            if not all(_is_number(v) and math.isfinite(v) for v in vals):
                raise ValueError(f"{key} must be finite numbers, got {vals}")
        for key in ("axis_range", "m_values"):
            object.__setattr__(self, key,
                               tuple(float(v) for v in getattr(self, key)))
        start, stop, step = self.axis_range
        if step <= 0 or stop < start:
            raise ValueError(f"axis_range needs step > 0 and stop >= start, "
                             f"got {self.axis_range}")
        if self.axis == "num_users":
            _whole_numbers("axis_range", self.axis_range)
        object.__setattr__(self, "num_users",
                           _whole_numbers("num_users", self.num_users))
        if not self.num_users or any(n < 1 for n in self.num_users):
            raise ValueError(f"num_users must be positive, got {self.num_users}")
        if not self.m_values or any(m < 0.5 for m in self.m_values):
            raise ValueError(f"m must list shape factors >= 0.5, got {self.m_values}")
        max_m = _SS_MAX_M if self.mode == "ss" else _OSA_MAX_M
        if any(m > max_m for m in self.m_values):
            raise ValueError(f"m must be <= {max_m:g} in {self.mode} mode, "
                             f"got {self.m_values}")
        # dB is monotone in its linear value, so the axis ends stand for
        # every axis value, and the budget's extremes lie at those ends
        linear = {key: [_db_value(key, getattr(self, key))]
                  for key in ("p_av_db", "q_av_db")}
        if self.axis in linear:
            linear[self.axis] = [_db_value("axis_range", v) for v in (start, stop)]
        if self.mode == "ss":
            for q in linear["q_av_db"]:
                for p in linear["p_av_db"]:
                    _finite_positive("the budget Q/P of q_av_db and p_av_db",
                                     q / p, f"{q / p:g}")
        object.__setattr__(self, "constellations",
                           _whole_numbers("constellations", self.constellations))
        ConstellationSet(self.constellations, self.ber_target)  # validates both
        for key, low in (("mc_samples", MIN_SAMPLES), ("seed", 0)):
            object.__setattr__(self, key,
                               _whole_number(key, getattr(self, key), low))
        if not isinstance(self.mc_validate, bool):
            raise ValueError(f"mc_validate must be true or false, "
                             f"got {self.mc_validate!r}")
        if not isinstance(self.output, str):
            raise ValueError(f"output must be a file path, "
                             f"got {self.output!r}")

    def axis_values(self) -> List[float]:
        start, stop, step = self.axis_range
        n = int(np.floor((stop - start) / step + 1e-9)) + 1
        vals = [start + i * step for i in range(n)]
        if self.axis == "num_users":
            return [int(round(v)) for v in vals]
        return vals


@dataclass
class SweepRow:
    axis_value: float
    ns: int
    m: float
    capacity: Optional[float] = None
    se_cr: Optional[float] = None
    se_dr: Optional[float] = None
    gamma0_cap: Optional[float] = None
    gamma0_cr: Optional[float] = None
    gamma_star_dr: Optional[float] = None
    mc_cap_rel: Optional[float] = None
    mc_cr_rel: Optional[float] = None
    mc_dr_rel: Optional[float] = None
    error: str = ""


@dataclass
class SweepResult:
    config: SweepConfig
    rows: List[SweepRow] = field(default_factory=list)


def _grid(cfg: SweepConfig) -> List[Tuple[float, int, float]]:
    values = cfg.axis_values()
    if cfg.axis == "num_users":
        return [(float(v), v, m) for v in values for m in cfg.m_values]
    return [(float(v), ns, m) for v in values for ns in cfg.num_users
            for m in cfg.m_values]


def build_point(mode: str, m: float, ns: int, p_db: float,
                q_db: Optional[float], tables: Optional[dict] = None
                ) -> Tuple[MudDistribution, ConstraintSpec]:
    """The best-of-ns SNR law and the power budget of one operating point.

    osa: direct link with mean SNR p_db and a unit transmit-power budget.
    ss: gain-ratio link with scale p_db and the interference budget Q/P.
    Points given the same tables dict share their survival tables.
    """
    spec = nakagami(m, db_to_linear(p_db))
    budget = 1.0 if mode == "osa" else db_to_linear(q_db) / db_to_linear(p_db)
    dist = MudDistribution(SnrDistribution(spec, _LINKS[mode]), ns,
                           {} if tables is None else tables)
    return dist, ConstraintSpec(budget)


class PointSolution(NamedTuple):
    """Solved policies of one operating point and their metrics."""

    cut: CutoffSolution
    cut_cr: CutoffSolution
    pol: DrPolicy
    capacity: float
    se_cr: float
    se_dr: float


def solve_points(dists, constraints, cset: ConstellationSet) -> list:
    """The capacity, continuous-rate and discrete-rate policies of each
    operating point (dists[i], constraints[i]) and their three metrics, all
    points in lockstep: one SurvivalQuery reads every table, and the three
    policies of all points are one solve (_policies). Each entry is a
    PointSolution or the first exception its point met; a point's entry
    does not depend on the other points."""
    query = SurvivalQuery(dists)
    ok = np.array([i for i, e in enumerate(query.errors) if e is None],
                  dtype=int)
    n, which = len(ok), np.tile(ok, 3)
    budget = np.array([constraints[i].budget_ratio for i in ok])
    k = np.repeat([1.0, cset.k, _DR], n)
    sols = _policies(query, which, np.tile(budget, 3), k, cset)
    cuts, pols = sols[:2 * n], sols[2 * n:]
    # both rates are log₂e·∫_t^∞ S(x)/x dx at t = γ₀/K (metrics): one
    # query for the cutoffs that solved, each rate or its exception
    rates = [c if isinstance(c, Exception) else None for c in cuts]
    good = np.array([i for i, r in enumerate(rates) if r is None], dtype=int)
    t = np.array([cuts[i].gamma0 for i in good]) / k[good]
    on, got, failed = _apart(lambda e: query(which[good[e]], t[e], 1)[2:3],
                            np.arange(len(good)))
    for e, g1 in zip(on.tolist(), (_LOG2E * got[0]).tolist() if got else ()):
        rates[good[e]] = g1
    for e, exc in failed.items():
        rates[good[e]] = exc
    out = list(query.errors)
    for i, d in enumerate(ok.tolist()):
        parts = (cuts[i], cuts[n + i], pols[i], rates[i], rates[n + i])
        out[d] = next((a for a in parts if isinstance(a, Exception)), None) \
            or PointSolution(*parts, spectral_efficiency_dr(
                dists[d], pols[i], cset).value)
    return out


def solve_point(dist: MudDistribution, constraint: ConstraintSpec,
                cset: ConstellationSet) -> PointSolution:
    """The capacity, continuous-rate and discrete-rate policies of one
    operating point and their three metrics: each policy a one-element
    _policies solve (power._alone), so the point gets the answer it gets
    in a group."""
    cut = solve_cutoff(dist, constraint)
    cut_cr = solve_cutoff_cr(dist, constraint, cset.k)
    pol = solve_dr_policy(dist, constraint, cset)
    return PointSolution(cut, cut_cr, pol, capacity(dist, cut).value,
                         spectral_efficiency_cr(dist, cut_cr, cset.k).value,
                         spectral_efficiency_dr(dist, pol, cset).value)


def _solve_group_points(cfg: SweepConfig, m: float, points, tables: dict) -> list:
    """(dist, cset, PointSolution or exception) of each (axis value, users)
    point of one (link, m) group, solved together on the tables dict."""
    built, where = [], []
    for v, ns in points:
        p_db = v if cfg.axis == "p_av_db" else cfg.p_av_db
        q_db = v if cfg.axis == "q_av_db" else cfg.q_av_db
        try:
            built.append(build_point(cfg.mode, m, ns, p_db, q_db, tables))
            where.append(len(built) - 1)
        except Exception as exc:
            where.append(exc)
    cset = ConstellationSet(cfg.constellations, cfg.ber_target)
    sols = solve_points([d for d, _ in built], [c for _, c in built], cset)
    return [(None, cset, w) if isinstance(w, Exception)
            else (built[w][0], cset, sols[w]) for w in where]


def evaluate_point(cfg: SweepConfig, axis_value: float, ns: int, m: float,
                   mc_seed: int = 0, tables: Optional[dict] = None,
                   solved: Optional[tuple] = None) -> SweepRow:
    """The row of one grid point from solved, its (dist, cset, solution)
    as _solve_group solves it with the rest of its group; without solved
    the point is solved alone, on tables as in build_point. The oracle
    columns, if asked for, are estimated here."""
    row = SweepRow(axis_value=axis_value, ns=ns, m=m)
    try:
        dist, cset, sol = solved or _solve_group_points(
            cfg, m, [(axis_value, ns)], tables)[0]
        if isinstance(sol, Exception):
            raise sol
        row.capacity, row.se_cr, row.se_dr = sol.capacity, sol.se_cr, sol.se_dr
        row.gamma0_cap, row.gamma0_cr, row.gamma_star_dr = (
            sol.cut.gamma0, sol.cut_cr.gamma0, sol.pol.gamma_star)
        if cfg.mc_validate:
            from .oracle import McConfig, mc_point
            est = mc_point(dist, sol.cut, sol.cut_cr, sol.pol, cset,
                           McConfig(samples=cfg.mc_samples, seed=mc_seed),
                           ("capacity", "se_cr", "se_dr"))
            row.mc_cap_rel = _rel_gap(est["capacity"].value, row.capacity)
            row.mc_cr_rel = _rel_gap(est["se_cr"].value, row.se_cr)
            row.mc_dr_rel = _rel_gap(est["se_dr"].value, row.se_dr)
    except Exception as exc:                 # record, keep sweeping
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def _rel_gap(value: float, analytic: float) -> float:
    return abs(value - analytic) / max(analytic, 1e-300)


def _solve_group(task) -> List[SweepRow]:
    """The rows of one (link, m) group's points, in the order given.

    The group's survival tables are built in one batch, every point is
    solved on them in lockstep (solve_points), and they are released
    before the rows are assembled (evaluate_point). Should the batch fail,
    each point builds its own table and reports the failure in its row."""
    cfg, m, points = task
    users = sorted({ns for _, _, ns, _ in points})
    try:
        tables = _unit_tables(_LINKS[cfg.mode], m, users)
    except Exception:       # each point records its own failure
        tables = {}
    solved = _solve_group_points(cfg, m, [(v, ns) for _, v, ns, _ in points],
                                 tables)
    tables.clear()
    return [evaluate_point(cfg, v, ns, m, seed, None, s)
            for (_, v, ns, seed), s in zip(points, solved)]


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepResult:
    """Evaluate the whole grid; row order is (axis, ns, m) regardless of
    worker scheduling, and per-point oracle streams derive from the config
    seed and the point index only. The points of one m form a (link, m)
    group, solved as one task on one batch of survival tables
    (_solve_group); with workers > 1 the groups are spread over up to that
    many worker processes. A table depends on (link, m, L) alone, so
    neither the grouping nor the scheduling changes a row."""
    points = _grid(cfg)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(
        max(len(points), 1), dtype=np.uint64)
    groups: dict = {}
    for i, (v, ns, m) in enumerate(points):
        groups.setdefault(m, []).append((i, v, ns, int(seeds[i])))
    tasks = [(cfg, m, group) for m, group in groups.items()]
    workers = min(workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(_solve_group, tasks))
    else:
        solved = list(map(_solve_group, tasks))
    rows = [None] * len(points)
    for (_, _, group), group_rows in zip(tasks, solved):
        for (i, *_), row in zip(group, group_rows):
            rows[i] = row
    return SweepResult(config=cfg, rows=rows)


def _fmt(v) -> str:
    if v is None:
        return ""
    return format(v, ".9g")


def render_csv(res: SweepResult) -> str:
    mc = res.config.mc_validate
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["axis", "ns", "m", "capacity", "se_cr", "se_dr",
                     "gamma0_cap", "gamma0_cr", "gamma_star_dr"]
                    + (["mc_cap_rel", "mc_cr_rel", "mc_dr_rel"] if mc else [])
                    + ["error"])
    for r in res.rows:
        rec = [_fmt(r.axis_value), str(r.ns), _fmt(r.m),
               _fmt(r.capacity), _fmt(r.se_cr), _fmt(r.se_dr),
               _fmt(r.gamma0_cap), _fmt(r.gamma0_cr), _fmt(r.gamma_star_dr)]
        if mc:
            rec += [_fmt(r.mc_cap_rel), _fmt(r.mc_cr_rel), _fmt(r.mc_dr_rel)]
        rec.append(r.error)
        writer.writerow(rec)
    return buf.getvalue()


def _check_output(path: str) -> None:
    """Raise ValueError, naming output, unless path can be written: its
    directory must exist and be writable and path must not be a
    directory. Run before a sweep, so a bad path costs no grid."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) \
            or not os.access(folder, os.W_OK):
        raise ValueError(f"output {path!r} cannot be written: "
                         + ("it is a directory" if os.path.isdir(path) else
                            f"no writable directory {folder!r}"))


def emit_csv(res: SweepResult, path: str) -> None:
    """Write the sweep table; one header plus one row per grid point."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(render_csv(res))
    except OSError as exc:
        raise OSError(f"cannot write sweep output to {path!r}: {exc}") from exc


def _yaml_loader():
    """PyYAML's safe loader: libyaml's where PyYAML has it, which is faster."""
    import yaml
    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str, overrides: Optional[dict] = None) -> SweepConfig:
    """Read a YAML sweep definition; overrides replace top-level keys."""
    import yaml
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_yaml_loader()) or {}
    except OSError as exc:
        raise OSError(f"cannot read sweep config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        where = getattr(exc, "problem_mark", None)
        raise ValueError(f"cannot parse sweep config {path!r}"
                         + (f" at line {where.line + 1}" if where else "")) from None
    if not isinstance(raw, dict):
        raise ValueError(f"sweep config {path!r} must map keys to values")
    if overrides:
        raw.update(overrides)
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> SweepConfig:
    known = {
        "mode", "axis", "axis_range", "num_users", "m", "p_av_db", "q_av_db",
        "ber_target", "constellations", "mc_validate", "mc_samples", "seed",
        "output",
    }
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(raw)
    if "m" in kwargs:
        kwargs["m_values"] = tuple(_as_list(kwargs.pop("m")))
    if "num_users" in kwargs:
        kwargs["num_users"] = tuple(_as_list(kwargs["num_users"]))
    if "axis_range" in kwargs:
        rng = list(_as_list(kwargs["axis_range"]))
        if len(rng) == 2:
            rng.append(1.0)
        if len(rng) != 3:
            raise ValueError(f"axis_range needs [start, stop, step], got {rng}")
        kwargs["axis_range"] = tuple(rng)
    if "constellations" in kwargs:
        kwargs["constellations"] = tuple(_as_list(kwargs["constellations"]))
    return SweepConfig(**kwargs)


def _as_list(v):
    if isinstance(v, (list, tuple)):
        return v
    return [v]
