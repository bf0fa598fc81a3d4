"""Smoke test of the end-to-end benchmark at a tiny size.

Runs every workload of ``BENCHMARK.json`` untraced, and the traced pass of
one workload with one request per op and of one with two, on 64 meters x 3
days for half a second each, two runs at a time.  Each run must pass its
own correctness checks (no failed op, so ``error_rate == 0``) and report
exactly the metrics ``BENCHMARK.json`` names, each with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
RUNS = [(workload, 0) for workload in WORKLOADS] + [("knn-point", 1), ("ingest-cycle", 1)]


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--meters", "64", "--days", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def runs():
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {run: pool.submit(_run, *run) for run in RUNS}
        return {key: future.result() for key, future in futures.items()}


@pytest.mark.parametrize("workload,trace", RUNS)
def test_run_reports_every_metric(runs, workload, trace):
    proc = runs[workload, trace]
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in expected
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
