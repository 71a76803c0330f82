"""Command-line front end: sweep, point, validate, selftest."""

from __future__ import annotations

import argparse
import math
import re
import sys

from . import __version__
from .fading import cdf_ratio, nakagami
from .metrics import capacity, spectral_efficiency_cr
from .power import (ConstellationSet, power_loss_factor, solve_cutoff,
                    solve_cutoff_cr)
from .specfun import exp_integral_e1
from .sweep import (MIN_SAMPLES, SweepConfig, _check_output, _yaml_loader,
                    build_point, emit_csv, load_config, render_csv,
                    run_sweep, solve_point)


def _parse_set(values):
    import yaml
    overrides = {}
    for item in values or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            overrides[key.strip()] = yaml.load(val, Loader=_yaml_loader())
        except yaml.YAMLError:
            raise ValueError(f"--set {key.strip()}: cannot parse {val!r}") from None
    return overrides


def cmd_sweep(args) -> int:
    try:
        overrides = _parse_set(args.set)
        if args.output:
            overrides["output"] = args.output
        cfg = load_config(args.config, overrides)
        _check_output(cfg.output)
    except (ValueError, OSError) as exc:
        args.parser.error(str(exc))
    res = run_sweep(cfg, workers=args.workers)
    emit_csv(res, cfg.output)
    failures = [r for r in res.rows if r.error]
    print(f"wrote {cfg.output}: {len(res.rows)} rows, {len(failures)} failed")
    for r in failures:
        print(f"  axis={r.axis_value:g} ns={r.ns} m={r.m:g}: {r.error}")
    return 1 if failures else 0


def cmd_point(args) -> int:
    axis = "p_av_db" if args.mode == "osa" else "q_av_db"
    anchor = args.p_av_db if args.mode == "osa" else args.q_av_db
    try:
        cfg = SweepConfig(
            mode=args.mode, axis=axis, axis_range=(anchor, anchor, 1.0),
            num_users=(args.ns,), m_values=(args.m,),
            p_av_db=args.p_av_db, q_av_db=args.q_av_db,
            ber_target=args.ber, constellations=args.sizes,
            mc_validate=args.mc, mc_samples=args.mc_samples, seed=args.seed,
            output=args.output or "-")
        if cfg.output != "-":
            _check_output(cfg.output)
    except ValueError as exc:                   # name the flags typed
        flags = {"num_users": "--ns", "ber_target": "--ber",
                 "constellations": "--sizes"}
        args.parser.error(re.sub(r"\b(" + "|".join(flags) + r")\b",
                                 lambda key: flags[key.group()], str(exc)))
    res = run_sweep(cfg)
    if cfg.output == "-":
        sys.stdout.write(render_csv(res))
    else:
        emit_csv(res, cfg.output)
        print(f"wrote {cfg.output}")
    return 1 if any(r.error for r in res.rows) else 0


# representative points for oracle validation: both modes, m in {1,2},
# single and multi user
_VALIDATE_POINTS = (
    ("osa", 1.0, 1, 10.0, None),
    ("osa", 2.0, 5, 10.0, None),
    ("osa", 1.0, 5, 0.0, None),
    ("ss", 1.0, 5, 10.0, 0.0),
    ("ss", 2.0, 1, 10.0, 10.0),
    ("ss", 2.0, 5, 10.0, 0.0),
)


# perfbench/freeze.py builds the validation points through this name
_build_point = build_point

_CSET = ConstellationSet((0, 4, 8, 16, 64), 1e-3)


def cmd_validate(args) -> int:
    from .oracle import McConfig, mc_point
    try:
        cfg = McConfig(samples=args.samples, seed=args.seed)
    except ValueError as exc:
        args.parser.error(str(exc))
    print(f"oracle validation: {args.samples} samples per estimate, "
          f"seed {args.seed}, 3-sigma bands")
    header = f"{'point':<28}{'metric':<10}{'analytic':>12}{'mc':>12}{'sigmas':>9}"
    print(header)
    ok = True
    for mode, m, ns, p_db, q_db in _VALIDATE_POINTS:
        dist, constraint = build_point(mode, m, ns, p_db, q_db)
        label = f"{mode} m={m:g} ns={ns} p={p_db:g}" + (
            f" q={q_db:g}" if q_db is not None else "")
        sol = solve_point(dist, constraint, _CSET)
        budget = constraint.budget_ratio
        analytic = {"capacity": sol.capacity, "se_cr": sol.se_cr,
                    "se_dr": sol.se_dr, "power": budget, "power_dr": budget}
        est = mc_point(dist, sol.cut, sol.cut_cr, sol.pol, _CSET, cfg)
        for name, ref in analytic.items():
            e = est[name]
            gap = abs(e.value - ref)
            # a zero stderr passes only on an exact match (McEstimate.within)
            sig = gap / e.stderr if e.stderr else (0.0 if gap == 0.0 else math.inf)
            good = sig <= 3.0
            ok = ok and good
            print(f"{label:<28}{name:<10}{ref:>12.6f}{e.value:>12.6f}"
                  f"{sig:>9.2f}" + ("" if good else "  FAIL"))
    print("validation " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def _samples(text: str) -> int:
    n = float(text)
    if not n.is_integer():
        raise argparse.ArgumentTypeError(f"must be a whole number, got {text}")
    if n < MIN_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be >= 1e5, got {text}")
    return int(n)


def _workers(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _sizes(text: str) -> tuple:
    sizes = [float(s) for s in text.split(",")]
    if not all(s.is_integer() for s in sizes):
        raise argparse.ArgumentTypeError(f"must be whole numbers, got {text}")
    return tuple(int(s) for s in sizes)


def _check(results, label, cond):
    results.append((label, bool(cond)))
    print(("ok    " if cond else "FAIL  ") + label)


def cmd_selftest(args) -> int:
    results = []
    k = power_loss_factor(1e-3)
    _check(results, "power-loss factor matches closed form",
           abs(k - 1.5 / math.log(200.0)) < 1e-12)

    # Rayleigh fading, unit mean SNR, a single user and a unit budget
    dist, c1 = build_point("osa", 1.0, 1, 0.0, None)
    cut = solve_cutoff(dist, c1)
    _check(results, "unit-budget cutoff in [0.39, 0.40]",
           0.39 <= cut.gamma0 <= 0.40)
    cap = capacity(dist, cut)
    closed = exp_integral_e1(cut.gamma0) / math.log(2.0)
    _check(results, "capacity matches exponential-integral closed form",
           abs(cap.value - closed) < 1e-8)

    cut_cr1 = solve_cutoff_cr(dist, c1, 1.0)
    _check(results, "unit power-loss factor reduces to plain cutoff",
           cut_cr1.gamma0 == cut.gamma0
           and spectral_efficiency_cr(dist, cut_cr1, 1.0).value == cap.value)

    # the Rayleigh constraint in closed form: e^{−γ₀}/γ₀ − E1(γ₀) = 1
    g0 = cut.gamma0
    _check(results, "shape factor 1 reproduces Rayleigh cutoff",
           abs(math.exp(-g0) / g0 - exp_integral_e1(g0) - 1.0) < 1e-9)

    for m in (0.5, 2.0):
        _check(results, f"gain-ratio CDF symmetry at unit point (m={m:g})",
               abs(cdf_ratio(nakagami(m, 1.0), 1.0) - 0.5) < 1e-9)

    for mode, m, ns, p_db, q_db in (("osa", 1.0, 5, 10.0, None),
                                    ("ss", 2.0, 5, 10.0, 0.0)):
        d, constraint = build_point(mode, m, ns, p_db, q_db)
        sol = solve_point(d, constraint, _CSET)
        _check(results, f"metric ordering at {mode} m={m:g} ns={ns}",
               sol.capacity >= sol.se_cr >= sol.se_dr >= 0.0)
        pol = sol.pol
        _check(results, f"region probabilities sum to one at {mode} m={m:g}",
               abs(sum(pol.region_probs) + float(d.cdf(pol.boundaries[0])) - 1.0) < 1e-9)

    from .oracle import McConfig, mc_point
    sol = solve_point(dist, c1, _CSET)
    mc = mc_point(dist, sol.cut, sol.cut_cr, sol.pol, _CSET,
                  McConfig(samples=200_000, seed=1))["power"]
    _check(results, "sampled policy power hits the unit budget (3 sigma)",
           mc.within(1.0))

    failed = [lbl for lbl, good in results if not good]
    print(f"selftest: {len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crlink",
        description="Capacity and adaptive-modulation spectral efficiency of "
                    "multi-user cognitive-radio links over fading channels.")
    ap.add_argument("--version", action="version", version=f"crlink {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="run a sweep defined by a config file")
    sp.add_argument("config", help="YAML sweep definition (see configs/)")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a config key (repeatable)")
    sp.add_argument("-o", "--output", help="override the output CSV path")
    sp.add_argument("--workers", type=_workers, default=1,
                    help="grid points evaluated in parallel (default 1)")
    sp.set_defaults(func=cmd_sweep, parser=sp)

    pp = sub.add_parser("point", help="evaluate a single operating point")
    pp.add_argument("--mode", choices=("osa", "ss"), required=True)
    pp.add_argument("--m", type=float, default=1.0, help="fading shape factor")
    pp.add_argument("--ns", type=int, default=1, help="number of secondary users")
    pp.add_argument("--p-av-db", type=float, default=0.0)
    pp.add_argument("--q-av-db", type=float, default=0.0)
    pp.add_argument("--ber", type=float, default=1e-3)
    pp.add_argument("--sizes", type=_sizes, default="0,4,8,16,64",
                    help="constellation sizes, leading 0 for outage")
    pp.add_argument("--mc", action="store_true", help="add oracle columns")
    pp.add_argument("--mc-samples", type=_samples, default=1_000_000,
                    help="draws per oracle estimate (>= 1e5, default 1e6)")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("-o", "--output", help="CSV path (default: stdout)")
    pp.set_defaults(func=cmd_point, parser=pp)

    vp = sub.add_parser("validate",
                        help="compare analytic metrics against the Monte Carlo oracle")
    vp.add_argument("--samples", type=_samples, default=1_000_000,
                    help="draws per operating point, shared by its five "
                         "estimates (>= 1e5, default 1e6)")
    vp.add_argument("--seed", type=int, default=7)
    vp.set_defaults(func=cmd_validate, parser=vp)

    st = sub.add_parser("selftest", help="run the built-in invariant checks")
    st.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
