"""Tests of the benchmark itself: seeded draws, tracer restore, fingerprint
checks, the metric names in BENCHMARK.json, and a tiny smoke run."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import child
import workloads
from speed import SpeedGauge
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_same_seed_same_items():
    for name in workloads.WORKLOADS:
        assert workloads.draw(name, 7) == workloads.draw(name, 7)
        assert workloads.draw(name, 7) != workloads.draw(name, 8)
    assert set(workloads.draw("kac_sweep", 1)) != set(workloads.draw("kac_sweep", 2))


def test_draw_takes_the_quota_of_every_pool():
    for name in ("kac_sweep", "euler_jt_grid", "laplacian_reports"):
        items = workloads.draw(name, 3)
        for pool in workloads.POOLS[name]:
            assert sum(item in pool.items for item in items) == pool.quota
    stream = workloads.draw("cli_session", 3)
    fresh = sum(pool.quota for pool in workloads.POOLS["cli_session"])
    assert len(set(stream)) == fresh
    assert len(stream) == fresh * (1 + workloads.CLI_REPEATS_PER_LINE)
    assert stream[0] in workloads.CLI_OPEN


def test_every_pool_item_has_a_fingerprint():
    recorded = workloads.load_fingerprints()
    for name in workloads.WORKLOADS:
        assert set(workloads.all_items(name)) <= set(recorded)


def test_untraced_run_calls_the_original_functions():
    program = workloads.Program()
    from spochar import charformulas, jacobitrudi, laurent, linalg, superspace

    rebound = [
        (charformulas, "exact_div"), (linalg, "exact_div"), (charformulas, "det_bareiss_laurent"),
        (jacobitrudi, "det_bareiss_laurent"), (superspace, "nullspace"), (charformulas, "kac_character"),
    ]
    originals = [getattr(mod, name) for mod, name in rebound]
    mul = laurent.LaurentPoly.__mul__
    items = ["kac 4|3 1d1", "jtpair 2|3 2,1", "report 4|3 2"]
    tracer = Tracer()
    with tracer:
        assert all(getattr(mod, name) is not fn for (mod, name), fn in zip(rebound, originals))
        for item in items:
            program.run(item)
    stats = tracer.snapshot()
    for span in ("charformulas.kac_character", "laurent.exact_div", "linalg.det_bareiss_laurent", "linalg.nullspace"):
        assert stats[span]["calls"] > 0, span
    assert stats["laurent.mul"]["term_pairs"] > 0
    assert all(getattr(mod, name) is fn for (mod, name), fn in zip(rebound, originals))
    assert laurent.LaurentPoly.__mul__ is mul and laurent.LaurentPoly.__rmul__ is mul
    tracer.reset()
    for item in items:
        program.run(item)
    assert tracer.snapshot() == {}


def test_corrupted_fingerprint_is_a_failure():
    program = workloads.Program()
    expected = workloads.load_fingerprints()
    items = ["kac 4|3 1d1", "jtpair 2|3 2,1"]
    assert child.run_pass(program, "kac_sweep", items, expected, SpeedGauge()).failed == 0
    bad = dict(expected)
    bad["kac 4|3 1d1"] = dict(expected["kac 4|3 1d1"], digest="0" * 20)
    del bad["jtpair 2|3 2,1"]
    result = child.run_pass(program, "kac_sweep", items, bad, SpeedGauge())
    assert result.failed == 2
    assert any(p.startswith("kac 4|3 1d1: fingerprint") for p in result.problems)
    assert any(p.startswith("jtpair 2|3 2,1: no recorded fingerprint") for p in result.problems)


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == child.PER_LAYER_UNITS
    import run

    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def test_smoke_run_of_every_workload():
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seconds", "0", "--limit", "2"],
        capture_output=True, text=True, timeout=170,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    want = {f"{w}.{m['name']}" for w in workloads.WORKLOADS for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kac_sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
