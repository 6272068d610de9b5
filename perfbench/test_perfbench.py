"""Tests of the benchmark itself, untimed.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import pytest
from folinv import stdbasis
from oracle import oracle_colength

import run
import tracing
import workloads

SAMPLE_OPS = 40
FINITE_PER_WORKLOAD = 6
MAX_COLENGTH = 20  # the oracle stabilises below degree colength + 1 <= 24
INFINITE_PER_WORKLOAD = 2


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_oracle_spot_check(workload):
    """A seeded sample of the ideals each workload sends to colength agrees
    with the independent mod-p oracle."""
    ops = workloads.WORKLOADS[workload](run.DEFAULT_SEED, 0)
    captured = []
    original = stdbasis.colength

    def capturing(ideal):
        value = original(ideal)
        captured.append((ideal, value))
        return value

    tracing.rebind(original, capturing)
    try:
        for i in sorted(random.Random(workload).sample(range(len(ops)), SAMPLE_OPS)):
            ops[i].call()
    finally:
        tracing.rebind(capturing, original)
    finite = [(I, v) for I, v in captured if stdbasis.is_finite(v) and v <= MAX_COLENGTH]
    infinite = [(I, v) for I, v in captured if not stdbasis.is_finite(v)]
    assert finite
    for ideal, value in finite[:FINITE_PER_WORKLOAD]:
        assert oracle_colength(ideal.generators) == value, ideal
    for ideal, _ in infinite[:INFINITE_PER_WORKLOAD]:
        assert oracle_colength(ideal.generators, nmax=10) is None, ideal


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_follow_the_seed_and_pass(workload):
    make = workloads.WORKLOADS[workload]
    first = [op.key for op in make(5, 0)]
    assert first == [op.key for op in make(5, 0)]
    assert len(set(first)) == len(first) >= 200
    for other in ([op.key for op in make(6, 0)], [op.key for op in make(5, 1)]):
        assert other != first and sorted(other) == sorted(first)


def test_layer_metrics_self_times(tmp_path):
    # milnor_k [0, 100] > colength [10, 60] > standard_basis [20, 50] > Poly.mul [30, 35]
    # then a cache hit: colength [70, 90] > standard_basis [75, 80].  Set-up
    # spans (op -1) count only for load_registry.
    names = [
        "invariants.milnor_k",
        "ring.Poly.mul",
        "scenarios.load_registry",
        "stdbasis.colength",
        "stdbasis.standard_basis",
    ]
    spans = [
        [2, -90, -60, -1, -1, 0],
        [3, -50, -10, -1, -1, 9],
        [4, -45, -15, 1, -1, 13],
        [0, 0, 100, -1, 0, 0],
        [3, 10, 60, 3, 0, 7],
        [4, 20, 50, 4, 0, 11],
        [1, 30, 35, 5, 0, 0],
        [3, 70, 90, 3, 0, 7],
        [4, 75, 80, 7, 0, 0],
    ]
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"names": names, "spans": spans}))
    m = tracing.layer_metrics(path, fallback_seen=False)
    assert m["invariants.self_s"] == 30 / 1e9
    assert m["stdbasis.colength.self_s"] == (20 + 15) / 1e9
    assert m["stdbasis.standard_basis.self_s"] == (25 + 5) / 1e9
    assert m["ring.Poly.mul.calls"] == 1 and m["ring.Poly.mul.self_s"] == 5 / 1e9
    assert m["stdbasis.standard_basis.calls"] == 2
    assert m["stdbasis.standard_basis.distinct"] == 1
    assert m["stdbasis.standard_basis.hit_ratio"] == 0.5
    assert m["stdbasis.input_terms"] == 11
    assert m["stdbasis.colength_sum"] == 14
    assert m["stdbasis.standard_basis.tail_share"] == 25 / 30
    assert m["stdbasis.fallback_seen"] == 0
    assert m["scenarios.load_registry.s"] == 30 / 1e9


def test_op_times_scale_with_the_probes_around_them():
    # Probes take 2 ms until t = 100 and 1 ms after; op 0 runs in the slow
    # stretch, op 1 in the fast one.
    probes = [(t, 2_000_000) for t in range(0, 100, 10)] + [(t, 1_000_000) for t in range(100, 300, 10)]
    ops = [(0, 5, 4_000_000, True), (1, 250, 4_000_000, True)]
    child = run.Child(len(ops), ops, probes, {"maxrss_kb": 1024}, "")
    assert run.scaled_times(child) == {0: 2_000_000, 1: 4_000_000}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_hang_guard_counts_unfinished_ops_as_failed(monkeypatch):
    monkeypatch.setattr(run, "PASS_CEILING_S", 0.5)
    result = run.measure("fallback", run.DEFAULT_SEED, seconds=0.1, trace=False)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert any("killed" in e for e in result["errors"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
