"""Tiny-size smoke of every benchmark workload.

Run from the repository root: ``python3 -m pytest perfbench -q``.
Each test drives ``run.py`` the way the benchmark is run, at ``--size
tiny``, and checks the printed result against ``BENCHMARK.json``.
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
sys.path.insert(0, HERE)

from run import MAX_UNATTRIBUTED_SHARE  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_benchmark_json(workload: str) -> None:
    metrics = _result(_run(workload, 0))["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_simulated_outcomes_repeat_at_a_fixed_seed() -> None:
    first, second = (_result(_run("surge-sharded", 0))["metrics"] for _ in range(2))
    assert first["mean_quality"]["value"] == second["mean_quality"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_cover_the_wall(workload: str) -> None:
    metrics = {n: m["value"] for n, m in _result(_run(workload, 1))["metrics"].items()}
    assert set(metrics) == set(_declared("per_layer"))
    assert 0 <= metrics["unattributed_s"] <= MAX_UNATTRIBUTED_SHARE * metrics["traced_wall_s"]
    shard_prefix = "shard.worker"
    worker_busy = sum(v for n, v in metrics.items() if n.startswith(shard_prefix))
    if workload == "surge-sharded":
        assert worker_busy > 0 and metrics["shard.bytes"] > 0
        assert metrics["edge.place.calls"] > 0
    else:
        assert worker_busy == 0
    if workload == "tune-grid":
        assert metrics["bo.ask.calls"] > 0 and metrics["bo.propose_batch.calls"] == 0
    if workload == "fleet-256":
        assert metrics["bo.propose_batch.rows"] >= metrics["bo.propose_batch.calls"] > 0
        assert metrics["store.lookup.calls"] > 0


def test_refuses_to_run_without_the_sources(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
