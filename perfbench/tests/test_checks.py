"""The benchmark's checker counts every kind of failure it claims to."""

import contextlib
import copy
import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import (SWEEP_COLUMNS, check_sweep_csv, check_validate_output,
                    sweep_errors)

BENCH = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((BENCH / "data" / "reference.json").read_text())


def sweep_csv(rows, errors=None):
    """A sweep CSV in crlink's format (9 significant digits)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["axis", "ns", "m", *SWEEP_COLUMNS, "error"])
    for i, r in enumerate(rows):
        w.writerow([format(r["axis"], ".9g"), r["ns"], format(r["m"], ".9g"),
                    *(format(r[c], ".9g") for c in SWEEP_COLUMNS),
                    (errors or {}).get(i, "")])
    return buf.getvalue()


def validate_text(rows, sigmas=None):
    """crlink validate's table, with the given sigma per line."""
    lines = ["oracle validation: 1000000 samples per estimate, seed 0, "
             "3-sigma bands",
             f"{'point':<28}{'metric':<10}{'analytic':>12}{'mc':>12}"
             f"{'sigmas':>9}"]
    for i, r in enumerate(rows):
        sig = (sigmas or {}).get(i, 0.5)
        lines.append(f"{r['point']:<28}{r['metric']:<10}{r['analytic']:>12.6f}"
                     f"{r['analytic']:>12.6f}{sig:>9.2f}"
                     + ("" if sig <= 3.0 else "  FAIL"))
    lines.append("validation passed")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", ["ss_fig4", "osa_users"])
def test_reference_output_passes(workload):
    ref = REFERENCE[workload]
    tally = check_sweep_csv(sweep_csv(ref), ref)
    assert (tally.attempted, tally.failed) == (len(ref), 0)
    assert 0.0 < tally.max_dev <= 5e-9       # 9-digit rounding only


def test_perturbed_reference_value_fails():
    ref = REFERENCE["ss_fig4"]
    bad = copy.deepcopy(ref)
    bad[7]["se_cr"] *= 1.0 + 3e-8
    tally = check_sweep_csv(sweep_csv(ref), bad)
    assert tally.failed == 1 and tally.fail_frac > 0.0
    assert tally.max_dev > 1e-8


def test_forced_error_cell_fails():
    ref = REFERENCE["osa_users"]
    text = sweep_csv(ref, errors={3: "ConvergenceError: forced"})
    tally = check_sweep_csv(text, ref)
    assert tally.failed == 1 and tally.fail_frac > 0.0
    assert sweep_errors(text) == 1


def test_missing_value_and_missing_row_fail():
    ref = REFERENCE["ss_fig4"]
    rows = copy.deepcopy(ref)
    rows[0]["gamma0_cr"] = float("nan")
    text = sweep_csv(rows[:-1]).replace("nan", "")
    tally = check_sweep_csv(text, ref)
    assert tally.failed == 2


def test_validate_reference_passes():
    ref = REFERENCE["oracle"]
    tally = check_validate_output(validate_text(ref), ref)
    assert (tally.attempted, tally.failed) == (30, 0)


def test_band_miss_fails():
    ref = REFERENCE["oracle"]
    tally = check_validate_output(validate_text(ref, sigmas={4: 3.13}), ref)
    assert tally.failed == 1 and tally.fail_frac > 0.0


def test_validate_analytic_mismatch_and_missing_line_fail():
    ref = REFERENCE["oracle"]
    rows = copy.deepcopy(ref)
    rows[0]["analytic"] += 1e-5
    tally = check_validate_output(validate_text(rows[:-1]), ref)
    assert tally.failed == 2


def test_real_point_output_checks():
    """crlink's own CSV rendering of one reference point passes."""
    from crlink.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["point", "--mode", "ss", "--m", "2", "--ns", "15",
                   "--p-av-db", "10", "--q-av-db", "4"])
    assert rc == 0
    ref = [r for r in REFERENCE["ss_fig4"]
           if (r["axis"], r["ns"], r["m"]) == (4.0, 15, 2.0)]
    tally = check_sweep_csv(out.getvalue(), ref)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_run_without_program_fails(tmp_path):
    """A directory with only the benchmark exits nonzero, printing no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ss_fig4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
