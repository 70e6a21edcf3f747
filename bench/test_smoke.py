"""Smoke test of the benchmark: tiny inputs, every check on, every metric present.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(ROOT / "bench"))
from tracer import COUNTS  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", "0", "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_repeatable_counts(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1", "--tiny")
    first, second = (result_of(run_bench(*args)) for _ in range(2))
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_filter_p8_counts_at_this_design():
    result = result_of(run_bench("--workload", "filter_p8", "--seed", "7", "--seconds", "1",
                                 "--trace", "1", "--tiny"))
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["likelihood.evals_per_step"] == 2
    # 7 per step in filter_run, 3 in loglik_from_records, plus a few per run
    assert round(metrics["linalg.decomps_per_step"]) == 10
    assert round(metrics["filtering.decomps_per_step"]) == 7


def test_all_prints_every_metric():
    done = subprocess.run([sys.executable, str(RUN), "--workload", "all", "--seed", "7",
                           "--seconds", "1", "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    names = {m["name"] for m in SPEC["end_to_end"]} | {"fail_ratio"}
    for workload in WORKLOADS:
        printed = {line.split()[1] for line in done.stdout.splitlines()
                   if line.split()[:1] == [workload]}
        assert printed == names, workload


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
