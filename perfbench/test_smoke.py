"""Smoke test of the benchmark itself: every workload at a tiny input
size, untraced and traced, checking that each metric BENCHMARK.json
names is printed with its unit, that a planted wrong output is counted
as a failed operation, and that the benchmark refuses to run without
the package beside it.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, *extra: str, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0",
           "--scale", "0.05", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def units(metrics: dict) -> dict:
    return {k: v["unit"] for k, v in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = run_bench(workload, "--trace", "0")
    res = result_of(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert units(res["metrics"]) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    context = json.loads(proc.stdout.strip().splitlines()[-2])["context"]
    assert {"ray_num_cpus", "nproc", "cpu_affinity", "mean_steal_pct",
            "loadavg_start", "git_sha", "seed"} <= set(context)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    res = result_of(run_bench(workload, "--trace", "1"))
    assert res["correct"] and res["attempted"] >= 2
    assert units(res["metrics"]) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert res["metrics"]["annotate.call_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_output_fails_the_operation(workload):
    res = result_of(run_bench(workload, "--trace", "0", "--plant-fault"))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
