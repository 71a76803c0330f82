"""The benchmark's definition: BENCHMARK.json against the runner, the tail
rule, the oracle seeds, the normalization and the scipy check of the
reference."""

import json
from pathlib import Path

from calibrate import REFERENCE_S, normalize
from run import END_TO_END, PER_LAYER, percentile, tail_percentile
from spotcheck import REL_TOL, spot_check
from workloads import WORKLOADS, oracle_seed

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_prints():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w["why"] for name, w in WORKLOADS.items()}
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == dict(END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(PER_LAYER)


def test_tail_percentile_leaves_ten_points_beyond():
    assert tail_percentile(44) == 77 and tail_percentile(60) == 83
    assert tail_percentile(6) == 100
    for n in (11, 44, 60, 132):
        q = tail_percentile(n)
        values = list(range(n))
        beyond = sum(v > percentile(values, q) for v in values)
        assert beyond >= 10
        assert sum(v > percentile(values, q + 1) for v in values) < 10


def test_oracle_seed_is_deterministic_and_skips_the_band_miss():
    assert oracle_seed(5) == oracle_seed(5)
    assert 23 not in {oracle_seed(s) for s in range(1000)}


def test_reference_agrees_with_scipy():
    rows = spot_check()
    assert len(rows) == 36
    assert max(gap for *_, gap in rows) <= REL_TOL


def test_normalize_scales_each_point_by_the_readings_around_it():
    ref = REFERENCE_S["overhead"]
    wall, points = normalize("overhead", 0.5, [100.0, 300.0],
                             [ref, ref, 3.0 * ref])
    assert points == [100.0, 150.0]
    assert wall == 0.5 * 250.0 / 400.0
