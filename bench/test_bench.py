"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric BENCHMARK.json names is emitted with its unit, that call
counts repeat, that a perturbed output is flagged as a failed operation,
and that the benchmark refuses to run without the package source.
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
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from workloads import IssuerEod  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result = run.run(workload, seed=3, seconds=0.0, trace=False)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["meta"]["seed"] == 3 and result["meta"]["src_lines"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    result = run.run(workload, seed=3, seconds=0.0, trace=True, trace_blocks=1)
    assert result["correct"], result["problems"]
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _units(SPEC["per_layer"])
    assert result["metrics"]["curves.df.calls"]["value"] > 0


def test_traced_call_counts_repeat_at_one_seed():
    counts = []
    for _ in range(2):
        result = run.run("cds_hedge", seed=5, seconds=0.0, trace=True, trace_blocks=2)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["pricing.cds_par_spread.calls"] > 0


def test_same_seed_same_inputs():
    first = IssuerEod(7, ROOT).universe.cycle(0)
    second = IssuerEod(7, ROOT).universe.cycle(0)
    other = IssuerEod(8, ROOT).universe.cycle(0)
    prices = lambda issuers: [b.price for i in issuers for b in i.bonds]  # noqa: E731
    assert prices(first) == prices(second)
    assert prices(first) != prices(other)


def test_das_shifted_by_one_bp_is_a_failed_operation():
    workload = IssuerEod(3, ROOT)
    workload.prepare(cycles=1)
    op = workload.prepared[0].ops[0]
    fit, report, fitted, das = op.run()
    assert run._problems(op, (fit, report, fitted, das)) == []
    shifted = list(das)
    shifted[0] += 1e-4
    records = [(op, 0.0, 0.0, run._problems(op, (fit, report, fitted, shifted)))]
    failed, problems = run._summary(records)
    assert failed == 1 and "DAS" in problems[0]


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "issuer_eod", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
