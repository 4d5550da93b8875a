"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import harness
import layertrace
from workloads import WORKLOADS, Problem

HERE = Path(__file__).resolve().parent


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_result_line(name):
    proc = _run(HERE.parent, "--workload", name, "--seed", "3", "--seconds", "0",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # --seconds 0 still runs one whole cycle of problem classes.
    assert result["attempted"] == len(WORKLOADS[name].classes)
    if not WORKLOADS[name].diagnostic:
        assert result["failed"] == 0
    assert set(result["metrics"]) == {
        "problems_per_s", "solve_p50_s", "solve_tail_s", "setup_s", "peak_rss_mb"
    }
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_benchmark_json_lists_the_workloads_that_do_not_fail():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {w["name"] for w in spec["workloads"]}
    assert listed == {name for name, w in WORKLOADS.items() if not w.diagnostic}
    metrics = {m["name"] for m in spec["end_to_end"]}
    assert metrics == {"problems_per_s", "solve_p50_s", "solve_tail_s", "setup_s",
                       "peak_rss_mb"}
    assert {m["name"] for m in spec["per_layer"]} == (
        {name for name, _unit in layertrace.metric_specs()}
        | {"bench.untraced_problems_per_s", "bench.traced_problems_per_s",
           "bench.trace_overhead_frac"}
    )


def test_traced_run_reports_every_layer_metric():
    proc = _run(HERE.parent, "--workload", "forward_inverse", "--seed", "3",
                "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    expected = {name for name, _unit in layertrace.metric_specs()} | {
        "bench.untraced_problems_per_s", "bench.traced_problems_per_s",
        "bench.trace_overhead_frac",
    }
    assert set(metrics) == expected
    assert metrics["lp.solve.calls"]["value"] > 0
    assert metrics["geometry.extreme_filter.points_in"]["value"] > 0
    assert 0 < metrics["geometry.extreme_filter.keep_ratio"]["value"] <= 1
    assert metrics["forward.solve_forward.calls"]["value"] == 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "lp_compact", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def dv():
    return harness.import_devport()


def test_oracle_rejects_a_tampered_optimum(dv):
    workload = WORKLOADS["forward_inverse"]
    problem = workload.make(dv, np.random.default_rng(5), workload.classes[0], None)
    out = workload.solve(dv, problem)
    assert workload.check(problem, out) is None
    tampered = dict(out, value=out["value"] * (1.0 + 1e-4))
    assert "HiGHS" in workload.check(problem, tampered)
    record = harness.Record(problem, 0.1, tampered)
    harness.check_all(workload, [record])
    assert record.failure == "oracle_mismatch"


def test_oracle_rejects_a_wrong_lp_verdict(dv):
    workload = WORKLOADS["lp_compact"]
    problem = workload.make(dv, np.random.default_rng(5), workload.classes[0], None)
    assert "HiGHS says Optimal" in workload.check(problem, {"status": "Unbounded",
                                                            "value": None})


class _Sleeper:
    classes = [("sleep",)]

    def solve(self, dv, problem):
        time.sleep(5.0)


def test_deadline_turns_a_slow_problem_into_a_timeout(monkeypatch):
    monkeypatch.setattr(harness, "DEADLINE_S", 0.05)
    start = time.perf_counter()
    record = harness.run_one(_Sleeper(), None, Problem("sleep", {}))
    assert record.failure == "timeout"
    assert time.perf_counter() - start < 1.0


def test_tracer_nests_spans_and_restores_the_modules(dv):
    original = dv.lp.solve
    tracer = layertrace.Tracer(dv)
    tracer.install()
    try:
        assert dv.lp.solve is not original
        workload = WORKLOADS["forward_inverse"]
        problem = workload.make(dv, np.random.default_rng(5), workload.classes[0], None)
        start = time.perf_counter()
        workload.solve(dv, problem)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert dv.lp.solve is original
    totals = tracer.totals
    assert totals["forward.solve_forward"]["calls"] == 1
    assert totals["lp.solve"]["calls"] > totals["geometry.extreme_filter"]["calls"] > 0
    self_sum = sum(row["self_s"] for row in totals.values())
    assert 0 < self_sum <= wall
    # solve_forward's own time excludes the LPs and filters it called.
    assert totals["forward.solve_forward"]["self_s"] < totals["lp.solve"]["self_s"]


def test_tail_has_ten_problems_beyond_it():
    stats = harness.latency_stats([float(t) for t in range(40, 0, -1)])
    assert stats["tail"] == 30.0 and stats["tail_beyond"] == 10
    assert stats["tail_percentile"] == 75.0
    assert stats["p50"] == 20.5
