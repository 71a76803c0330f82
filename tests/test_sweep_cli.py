"""Sweep driver and CLI: grids, CSV contract, determinism, subcommands."""

import hashlib
import io
import math
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import pytest

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

from crlink.cli import _VALIDATE_POINTS, _build_point, build_parser, main
from crlink.fading import FadingSpec, LinkKind, SnrDistribution
from crlink.metrics import (capacity, spectral_efficiency_cr,
                            spectral_efficiency_dr)
from crlink.mud import MudDistribution
from crlink.oracle import McConfig, mc_capacity
from crlink.power import (ConstellationSet, ConstraintSpec, CutoffSolution,
                          solve_cutoff, solve_cutoff_cr, solve_dr_policy)
from crlink.sweep import (SweepConfig, SweepResult, config_from_dict,
                          db_to_linear, emit_csv, evaluate_point, load_config,
                          render_csv, run_sweep, solve_point)


def small_cfg(**kw):
    base = dict(mode="osa", axis="p_av_db", axis_range=(0.0, 4.0, 2.0),
                num_users=(1, 5), m_values=(1.0,), seed=3,
                output="out.csv")
    base.update(kw)
    return SweepConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(mode="other")
    with pytest.raises(ValueError):
        small_cfg(axis="frequency")
    with pytest.raises(ValueError):
        small_cfg(axis="q_av_db")                 # interference axis in osa
    with pytest.raises(ValueError):
        small_cfg(axis_range=(5.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        small_cfg(num_users=())
    with pytest.raises(ValueError):
        small_cfg(ber_target=0.2)
    with pytest.raises(ValueError):
        small_cfg(mc_samples=10)


def test_axis_values_inclusive():
    cfg = small_cfg(axis_range=(0.0, 20.0, 2.0))
    vals = cfg.axis_values()
    assert len(vals) == 11 and vals[0] == 0.0 and vals[-1] == 20.0
    users = SweepConfig(mode="ss", axis="num_users", axis_range=(1, 15, 1),
                        m_values=(1.0,), p_av_db=10.0, q_av_db=0.0)
    assert users.axis_values() == list(range(1, 16))


def test_grid_order_and_values():
    res = run_sweep(small_cfg())
    keys = [(r.axis_value, r.ns, r.m) for r in res.rows]
    assert keys == [(0.0, 1, 1.0), (0.0, 5, 1.0), (2.0, 1, 1.0),
                    (2.0, 5, 1.0), (4.0, 1, 1.0), (4.0, 5, 1.0)]
    for r in res.rows:
        assert r.error == ""
        for v in (r.capacity, r.se_cr, r.se_dr, r.gamma0_cap,
                  r.gamma0_cr, r.gamma_star_dr):
            assert v is not None and math.isfinite(v) and v >= 0.0


def test_single_point_matches_library_composition():
    cfg = small_cfg(axis_range=(10.0, 10.0, 1.0), num_users=(5,))
    row = run_sweep(cfg).rows[0]

    spec = FadingSpec(db_to_linear(10.0), 1.0)
    dist = MudDistribution(SnrDistribution(spec, LinkKind.DIRECT), 5)
    constraint = ConstraintSpec(1.0)
    cset = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
    cut = solve_cutoff(dist, constraint)
    cut_cr = solve_cutoff_cr(dist, constraint, cset.k)
    pol = solve_dr_policy(dist, constraint, cset)

    assert row.capacity == capacity(dist, cut).value
    assert row.se_cr == spectral_efficiency_cr(dist, cut_cr, cset.k).value
    assert row.se_dr == spectral_efficiency_dr(dist, pol, cset).value
    assert row.gamma0_cap == cut.gamma0
    assert row.gamma0_cr == cut_cr.gamma0
    assert row.gamma_star_dr == pol.gamma_star


def test_validate_points_match_sweep_rows():
    # validate and the sweep build and solve an operating point one way
    cset = ConstellationSet((0, 4, 8, 16, 64), 1e-3)
    for mode, m, ns, p_db, q_db in _VALIDATE_POINTS:
        sol = solve_point(*_build_point(mode, m, ns, p_db, q_db), cset)
        cfg = SweepConfig(mode=mode, axis="p_av_db",
                          axis_range=(p_db, p_db, 1.0),
                          q_av_db=0.0 if q_db is None else q_db)
        row = evaluate_point(cfg, p_db, ns, m)
        assert row.error == ""
        assert (row.capacity, row.se_cr, row.se_dr) == (
            sol.capacity, sol.se_cr, sol.se_dr)
        assert (row.gamma0_cap, row.gamma0_cr, row.gamma_star_dr) == (
            sol.cut.gamma0, sol.cut_cr.gamma0, sol.pol.gamma_star)


def test_emit_csv_contract(tmp_path):
    cfg = small_cfg()
    out = tmp_path / "rows.csv"

    empty = SweepResult(config=cfg, rows=[])
    emit_csv(empty, str(out))
    lines = out.read_text().split("\n")
    assert lines[0] == ("axis,ns,m,capacity,se_cr,se_dr,"
                        "gamma0_cap,gamma0_cr,gamma_star_dr,error")
    assert lines[1:] == [""]

    res = run_sweep(cfg)
    emit_csv(res, str(out))
    text = out.read_text()
    assert "\r" not in text
    lines = text.rstrip("\n").split("\n")
    assert len(lines) == 1 + len(res.rows)
    # 9 significant digits
    cell = lines[1].split(",")[3]
    assert cell == format(res.rows[0].capacity, ".9g")


def test_csv_rerun_is_byte_identical(tmp_path):
    cfg = small_cfg(axis_range=(10.0, 10.0, 1.0), num_users=(1, 5),
                    mc_validate=True, mc_samples=10 ** 5, seed=99)
    digests = []
    for name in ("a.csv", "b.csv"):
        res = run_sweep(cfg)
        path = tmp_path / name
        emit_csv(res, str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    header = (tmp_path / "a.csv").read_text().split("\n")[0]
    assert header == ("axis,ns,m,capacity,se_cr,se_dr,gamma0_cap,gamma0_cr,"
                      "gamma_star_dr,mc_cap_rel,mc_cr_rel,mc_dr_rel,error")


def test_solver_failure_lands_in_error_column():
    # an astronomically large interference budget cannot be met
    cfg = SweepConfig(mode="ss", axis="q_av_db",
                      axis_range=(300.0, 300.0, 1.0), num_users=(1,),
                      m_values=(1.0,), p_av_db=0.0, seed=1)
    res = run_sweep(cfg)
    assert len(res.rows) == 1
    assert res.rows[0].error != ""
    assert res.rows[0].capacity is None
    text = render_csv(res)
    assert "NoSolutionError" in text


def test_workers_produce_identical_rows():
    cfg = small_cfg()
    seq = run_sweep(cfg, workers=1)
    par = run_sweep(cfg, workers=2)
    assert render_csv(seq) == render_csv(par)


def test_load_config_and_overrides(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "mode: osa\naxis: p_av_db\naxis_range: [0, 4, 2]\n"
        "num_users: [1]\nm: [1.0]\noutput: x.csv\n")
    cfg = load_config(str(path))
    assert cfg.num_users == (1,) and cfg.m_values == (1.0,)
    cfg2 = load_config(str(path), {"num_users": [1, 5], "seed": 7})
    assert cfg2.num_users == (1, 5) and cfg2.seed == 7
    path.write_text("mode: osa\naxis: p_av_db\naxis_range: [0, 4, 2]\nbogus: 1\n")
    with pytest.raises(ValueError):
        load_config(str(path))


def test_shipped_configs_parse():
    for name in ("fig1", "fig2", "fig3", "fig4"):
        cfg = load_config(str(CONFIGS / f"{name}.cfg"))
        assert cfg.axis_values()


def test_fig1_sweep_row_count(tmp_path):
    res = run_sweep(load_config(str(CONFIGS / "fig1.cfg")))
    out = tmp_path / "fig1.csv"
    emit_csv(res, str(out))
    lines = out.read_text().rstrip("\n").split("\n")
    assert len(lines) == 34             # header + 11 axis points x 3 user counts


def test_cli_sweep_and_set_override(tmp_path):
    out = tmp_path / "cli.csv"
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["sweep", str(CONFIGS / "fig1.cfg"), "-o", str(out),
                   "--set", "axis_range=[0, 2, 2]", "--set", "num_users=[1]"])
    assert rc == 0
    lines = out.read_text().rstrip("\n").split("\n")
    assert len(lines) == 3              # header + 2 rows


def test_point_far_below_the_root_domain_fails_quietly(capsys):
    # at −3000 dB every table query lies past the direct-link table, where
    # the law is 0; the row fails with the domain error and nothing else
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["point", "--mode", "osa", "--m", "2", "--ns", "5",
                   "--p-av-db", "-3000"])
    out, err = capsys.readouterr()
    assert rc == 1 and err == ""
    assert out.split("\n")[1].endswith(
        "NoSolutionError: constraint stays below target 1.0 as the cutoff "
        "vanishes; value 0.0 at 1e-14")


def test_cli_point_stdout_matches_sweep(tmp_path):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["point", "--mode", "osa", "--ns", "5", "--p-av-db", "10"])
    assert rc == 0
    lines = buf.getvalue().rstrip("\n").split("\n")
    assert len(lines) == 2

    cfg = small_cfg(axis_range=(10.0, 10.0, 1.0), num_users=(5,), seed=0,
                    output="-")
    expected = render_csv(run_sweep(cfg)).rstrip("\n").split("\n")
    assert lines == expected


def test_cli_selftest():
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["selftest"])
    assert rc == 0
    assert "12/12 checks passed" in buf.getvalue()


@pytest.mark.parametrize("key,value", [
    ("p_av_db", float("nan")),
    ("q_av_db", float("inf")),
    ("m", float("nan")),
    ("ber_target", float("nan")),
    ("axis_range", [0, float("inf"), 1]),
    ("num_users", [2.7]),
    ("constellations", [0, 4, 8.7, 16, 64]),
    ("seed", -1),
    ("seed", 1.5),
    ("seed", True),
    ("mc_samples", 150000.5),
    ("mc_validate", "yes_please"),
    ("m", [True]),
    ("p_av_db", True),
    ("axis_range", [0, True, 1]),
    ("p_av_db", "10"),
    ("m", ["abc"]),
    ("output", 5),
])
def test_config_rejects_bad_values_at_load(key, value):
    # caught when the config is read, with the key named, never per point
    raw = {"mode": "ss", "axis": "p_av_db", "axis_range": [0, 4, 2],
           "num_users": [1, 5], "m": 1.0, key: value}
    with pytest.raises(ValueError, match=key):
        config_from_dict(raw)


def test_config_takes_whole_floats_as_ints():
    cfg = config_from_dict({"mode": "osa", "axis": "p_av_db",
                            "axis_range": [0, 4, 2], "seed": 4.0,
                            "mc_samples": 2.0e5,
                            "constellations": [0, 4.0, 16]})
    assert (cfg.seed, cfg.mc_samples, cfg.constellations) == (4, 200000, (0, 4, 16))
    assert all(type(v) is int for v in (cfg.seed, cfg.mc_samples,
                                        *cfg.constellations))


def test_cli_point_rejects_fractional_sizes(capsys):
    # used to die with a bare int() traceback
    with pytest.raises(SystemExit) as exc:
        main(["point", "--mode", "osa", "--sizes", "0,4,8.5"])
    assert exc.value.code == 2
    assert "--sizes: must be whole numbers" in capsys.readouterr().err


@pytest.mark.parametrize("argv,key", [
    (["point", "--mode", "osa", "--ns", "0"], "num_users"),
    (["point", "--mode", "osa", "--seed", "-1"], "seed"),
    (["validate", "--seed", "-1"], "seed"),
    (["point", "--mode", "osa", "--m", "6000", "--ns", "5"], "m"),
    (["point", "--mode", "osa", "--p-av-db", "4000"], "p_av_db"),
    (["point", "--mode", "ss", "--p-av-db", "-4000", "--q-av-db", "0"],
     "p_av_db"),
])
def test_cli_bad_value_is_usage_error(argv, key, capsys):
    # used to end in a ValueError traceback, validate after its header
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {key} must be" in err


def test_config_rejects_fractional_user_axis():
    with pytest.raises(ValueError, match="whole numbers"):
        small_cfg(axis="num_users", axis_range=(1.0, 5.0, 1.5))


def test_cli_validate_rejects_too_few_samples(capsys):
    # one draw used to print sigma 0.00 everywhere and pass: its stderr is inf
    for n in ("1", "99999"):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--samples", n])
        assert exc.value.code == 2
        assert "--samples: must be >= 1e5" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["point", "--mode", "osa", "--mc", "--mc-samples", "10"])


def test_cli_validate_zero_stderr_passes_only_exact_match(monkeypatch):
    # a zero stderr used to read as sigma 0 and pass whatever the gap
    import crlink.cli as cli
    from crlink.oracle import McEstimate

    def constant(dist, cut, cut_cr, pol, cset, cfg):
        names = ("capacity", "se_cr", "se_dr", "power", "power_dr")
        return dict.fromkeys(names, McEstimate(0.1, 0.0, cfg.samples))
    monkeypatch.setattr(cli, "mc_point", constant)
    with redirect_stdout(io.StringIO()) as out:
        rc = main(["validate", "--samples", "100000"])
    assert rc == 1
    lines = out.getvalue().splitlines()
    fails = [ln for ln in lines if ln.endswith("FAIL")]
    assert all(ln.split()[-2] == "inf" for ln in fails)
    # 0.1 is exactly the power budget at the two ss points with q=0
    exact = [ln for ln in lines[2:-1] if not ln.endswith("FAIL")]
    assert len(exact) == 4 and len(fails) == 26
    assert all(ln.split()[-3:] == ["0.100000", "0.100000", "0.00"] for ln in exact)


def _count_draws(monkeypatch):
    import crlink.mud as mud
    draws = []
    real = mud.mud_sample

    def counted(d, rng, n):
        draws.append(n)
        return real(d, rng, n)
    monkeypatch.setattr(mud, "mud_sample", counted)
    return draws


def test_one_oracle_stream_per_point(monkeypatch):
    draws = _count_draws(monkeypatch)
    with redirect_stdout(io.StringIO()) as out:
        rc = main(["validate", "--samples", "100000", "--seed", "3"])
    assert rc == 0
    points = sum(" capacity " in line for line in out.getvalue().splitlines())
    assert points == 6
    assert sum(draws) == points * 10 ** 5

    draws.clear()
    cfg = SweepConfig(mode="osa", axis="p_av_db", axis_range=(10.0, 10.0, 1.0),
                      num_users=(3,), mc_validate=True, mc_samples=2 * 10 ** 5)
    row = evaluate_point(cfg, 10.0, 3, 1.0, mc_seed=5)
    assert not row.error and row.mc_dr_rel is not None
    assert sum(draws) == cfg.mc_samples


def test_oracle_batches_bounded_at_many_users(monkeypatch):
    # each batch draws (L, n) base SNRs; at L = 100 one uncapped batch of
    # 1e5 would hold 1e7 of them
    draws = _count_draws(monkeypatch)
    base = SnrDistribution(FadingSpec(10.0), LinkKind.DIRECT)
    dist = MudDistribution(base, 100)
    cut = CutoffSolution(gamma0=0.1, residual=0.0, iterations=0)
    est = mc_capacity(dist, cut, McConfig(samples=10 ** 5, seed=4))
    assert sum(draws) == est.samples == 10 ** 5
    assert max(draws) * 100 <= 4 * 10 ** 6


@pytest.mark.parametrize("argv,key", [
    (["--set", "m=.nan"], "m must be"),
    (["--set", "num_users=[2.5]"], "num_users"),
    (["--set", "bogus=1"], "unknown config keys"),
    (["--set", "m=[1,"], "--set m: cannot parse"),
    (["--set", "m"], "--set expects key=value"),
    (["--set", "axis_range=[0,4000,1000]"], "axis_range"),
    (["--set", "mode=ss", "--set", "axis=q_av_db", "--set", "p_av_db=-4000"],
     "p_av_db"),
    (["--set", "mode=ss", "--set", "q_av_db=3000",
      "--set", "axis_range=[-3000,0,1000]"], "budget Q/P"),
])
def test_cli_sweep_bad_value_is_usage_error(argv, key, tmp_path, capsys):
    # used to end in a Python traceback with exit code 1
    out = tmp_path / "never.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(CONFIGS / "fig1.cfg"), "-o", str(out)] + argv)
    assert exc.value.code == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert key in err.splitlines()[-1]
    assert not out.exists()


def test_cli_sweep_bad_config_file_is_usage_error(tmp_path, capsys):
    broken = tmp_path / "broken.cfg"
    broken.write_text("mode: osa\naxis: [p_av_db\n")
    listed = tmp_path / "listed.cfg"
    listed.write_text("- mode\n- osa\n")
    for path, text in ((tmp_path / "missing.cfg", "cannot read sweep config"),
                       (broken, "cannot parse sweep config"),
                       (listed, "must map keys to values")):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(path), "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert text in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "x.csv").exists()


def test_cli_sweep_failed_rows_exit_nonzero(tmp_path):
    # the 300 dB interference budget cannot be met; the 0 dB point can
    cfg = tmp_path / "fail.cfg"
    cfg.write_text("mode: ss\naxis: q_av_db\naxis_range: [0, 300, 300]\n"
                   "num_users: [1]\nm: [1.0]\np_av_db: 0.0\n")
    out = tmp_path / "fail.csv"
    with redirect_stdout(io.StringIO()) as buf:
        rc = main(["sweep", str(cfg), "-o", str(out)])
    assert rc == 1
    lines = out.read_text().rstrip("\n").split("\n")
    assert len(lines) == 3
    assert lines[1].endswith(",") and "NoSolutionError" in lines[2]
    report = buf.getvalue().splitlines()
    assert report[0].endswith("2 rows, 1 failed")
    assert report[1].startswith("  axis=300 ns=1 m=1: NoSolutionError")


def test_sweep_oracle_evaluates_three_maps(monkeypatch):
    # the sweep reports three gaps, so it asks for three estimates only
    import crlink.oracle as oracle
    seen = []
    real = oracle._accumulate

    def counted(dist, cfg, maps, pol=None):
        seen.append(len(maps))
        return real(dist, cfg, maps, pol)
    monkeypatch.setattr(oracle, "_accumulate", counted)
    cfg = small_cfg(axis_range=(10.0, 10.0, 1.0), num_users=(3,),
                    mc_validate=True, mc_samples=10 ** 5)
    row = run_sweep(cfg).rows[0]
    assert row.error == "" and row.mc_dr_rel is not None
    assert seen == [3]


def test_rows_do_not_depend_on_grid_order(monkeypatch):
    # a table depends on (link, m, L) alone, never on the points before it
    import crlink.sweep as sweep
    cfg = SweepConfig(mode="ss", axis="q_av_db", axis_range=(-4.0, 4.0, 4.0),
                      num_users=(1, 5), m_values=(1.0, 1.5), p_av_db=10.0)
    forward = {(r.axis_value, r.ns, r.m): r for r in run_sweep(cfg).rows}
    real = sweep._grid
    monkeypatch.setattr(sweep, "_grid", lambda c: real(c)[::-1])
    backward = run_sweep(cfg).rows
    assert [(r.axis_value, r.ns, r.m) for r in backward] == list(forward)[::-1]
    for r in backward:
        assert r == forward[(r.axis_value, r.ns, r.m)]
    monkeypatch.undo()

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["point", "--mode", "ss", "--m", "1.5", "--ns", "5",
                   "--p-av-db", "10", "--q-av-db", "0"])
    assert rc == 0
    point = buf.getvalue().rstrip("\n").split("\n")[1].split(",")
    row = forward[(0.0, 5, 1.5)]
    assert point[3:9] == [format(v, ".9g") for v in (
        row.capacity, row.se_cr, row.se_dr, row.gamma0_cap, row.gamma0_cr,
        row.gamma_star_dr)]
    cfg_point = SweepConfig(mode="ss", axis="q_av_db",
                            axis_range=(0.0, 0.0, 1.0), num_users=(5,),
                            m_values=(1.5,), p_av_db=10.0)
    assert run_sweep(cfg_point).rows[0] == row


def test_each_sweep_builds_its_own_tables(monkeypatch):
    # tables live for one run_sweep call: a (link, m) group of points shares
    # one batch of them, and the next call builds it again
    import crlink.mud as mud
    built = []
    real = mud._survival_tables

    def counted(base, laws):
        built.append(len(laws))
        return real(base, laws)
    monkeypatch.setattr(mud, "_survival_tables", counted)
    cfg = small_cfg(axis_range=(0.0, 4.0, 2.0), num_users=(1, 5))
    first = render_csv(run_sweep(cfg))
    assert built == [2]                     # (direct, 1, 1), (direct, 1, 5)
    assert render_csv(run_sweep(cfg)) == first
    assert built == [2, 2]


def test_sweep_releases_a_table_after_its_last_point(monkeypatch):
    # on a user-count axis every (L, m) occurs once, so a table read by an
    # earlier point may no longer be alive when the next point starts
    import weakref

    import crlink.sweep as sweep
    alive, seen, done = {}, [], set()
    real_tables, real_eval = sweep._unit_tables, sweep.evaluate_point

    def tracked(link, m, users):
        tables = real_tables(link, m, users)
        alive.update((key[1:], weakref.ref(t)) for key, t in tables.items())
        return tables

    def evaluate(cfg, v, ns, m, *args):
        seen.append([k for k, ref in alive.items()
                     if k in done and ref() is not None])
        done.add((m, ns))
        return real_eval(cfg, v, ns, m, *args)
    monkeypatch.setattr(sweep, "_unit_tables", tracked)
    monkeypatch.setattr(sweep, "evaluate_point", evaluate)
    cfg = SweepConfig(mode="osa", axis="num_users", axis_range=(1, 4, 1),
                      m_values=(1.0, 1.5))
    assert all(r.error == "" for r in run_sweep(cfg).rows)
    assert len(alive) == 8 and seen == [[]] * 8
    assert all(ref() is None for ref in alive.values())


def test_cli_sweep_unwritable_output_is_usage_error(tmp_path, capsys,
                                                    monkeypatch):
    # checked at load: no point is evaluated and nothing is written
    import crlink.cli as cli
    monkeypatch.setattr(cli, "run_sweep",
                        lambda *a, **k: pytest.fail("the grid was evaluated"))
    missing = str(tmp_path / "no" / "x.csv")
    for argv in (["-o", missing], ["--set", f"output={missing}"],
                 ["-o", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(CONFIGS / "fig1.cfg")] + argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: output" in err.splitlines()[-1]
    assert list(tmp_path.iterdir()) == []


def test_config_rejects_sharing_shape_factor_above_15(capsys):
    # the ratio-link survival is checked to 1e-11 up to m = 15
    raw = {"mode": "ss", "axis": "q_av_db", "axis_range": [0, 4, 2]}
    with pytest.raises(ValueError, match="m must be <= 15 in ss mode"):
        config_from_dict({**raw, "m": [2.0, 15.5]})
    assert config_from_dict({**raw, "m": 15}).m_values == (15.0,)
    osa = {"mode": "osa", "axis": "p_av_db", "axis_range": [0, 4, 2]}
    assert config_from_dict({**osa, "m": 20}).m_values == (20.0,)
    # the direct-link laws are checked to 1e-11 up to m = 1000
    assert config_from_dict({**osa, "m": 1000}).m_values == (1000.0,)
    with pytest.raises(ValueError, match="m must be <= 1000 in osa mode"):
        config_from_dict({**osa, "m": 1000.5})
    with pytest.raises(SystemExit) as exc:
        main(["point", "--mode", "ss", "--m", "20"])
    assert exc.value.code == 2
    assert "error: m must be <= 15" in capsys.readouterr().err


def test_workers_take_whole_shape_factor_groups():
    # two (link, m) groups go to two worker processes; the rows are those
    # of the serial run, which takes the same group tasks
    cfg = small_cfg(mode="ss", axis="q_av_db", num_users=(2, 5),
                    m_values=(1.0, 1.5))
    assert render_csv(run_sweep(cfg, workers=2)) == render_csv(run_sweep(cfg))


def test_sweep_falls_back_to_one_table_per_point(monkeypatch):
    # a batch that raises costs its group only the sharing: each point
    # builds its own table through MudDistribution.sf_integral
    import crlink.sweep as sweep
    from crlink.exceptions import ConvergenceError
    cfg = small_cfg(num_users=(1, 5))
    expected = render_csv(run_sweep(cfg))

    def failing(link, m, users):
        raise ConvergenceError("batch failed")
    monkeypatch.setattr(sweep, "_unit_tables", failing)
    assert render_csv(run_sweep(cfg)) == expected


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_sweep_rejects_workers_below_one(workers, capsys):
    # used to run serially and exit 0
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(CONFIGS / "fig1.cfg"), "--workers", workers])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--workers: must be >= 1, got {workers}" in err


@pytest.mark.parametrize("argv,dest", [
    (["validate", "--samples"], "samples"),
    (["point", "--mode", "osa", "--mc-samples"], "mc_samples"),
])
def test_cli_samples_take_whole_numbers_in_any_notation(argv, dest, capsys):
    # as a config's mc_samples does; 1e6 used to be an invalid int
    for text, n in (("1e6", 1_000_000), ("2e5", 200_000), ("150000", 150_000)):
        got = getattr(build_parser().parse_args(argv + [text]), dest)
        assert type(got) is int and got == n
    for text, why in (("150000.5", "must be a whole number"),
                      ("1e4", "must be >= 1e5")):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + [text])
        assert exc.value.code == 2
        assert f"{why}, got {text}" in capsys.readouterr().err
