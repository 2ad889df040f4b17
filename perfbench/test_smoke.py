"""Smoke test of the benchmark itself, at tiny size.

Run:  python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload runs clean and reports every named metric with
its unit, that ``BENCHMARK.json`` names exactly the metrics the driver
prints, that each workload's output check fires on a wrong answer (the
negative controls), and that the driver refuses to run without the
product sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

harness.use_checkout_sources()

WORKLOADS = list(run.PER_LAYER)


@pytest.fixture(scope="module", autouse=True)
def _stop_helpers():
    yield
    harness.stop_helpers()


def _spec():
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_driver_prints():
    spec = _spec()
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [w for w in WORKLOADS if w in gated]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["bound"] for m in spec["end_to_end"]} == run.BOUNDS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.per_layer_units())
    assert spec["paths"] == [HERE.name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(workload):
    out, metrics = run.end_to_end(workload, seed=7, seconds=0.0, tiny=True)
    assert out.attempted > 0 and out.failed == 0, out.errors
    assert {name: m["unit"] for name, m in metrics.items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in metrics.values()), metrics


def test_traced_metrics_present():
    checks, metrics = run.traced(
        "fleet-serial", seed=7, seconds=0.0, tiny=True)
    assert checks.attempted > 0 and checks.failed == 0, checks.errors
    assert {name: m["unit"] for name, m in metrics.items()} == (
        run.per_layer_units())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_negative_control_fires(workload):
    """Feed each workload's check a wrong answer: every such op fails."""
    out = run.runner(workload, tiny=True)(7, episodes=1, corrupt=True)
    assert out.attempted > 0 and out.failed > 0


def test_stop_helpers_leaves_no_process():
    """The sharded fleet's workers and resource tracker are all reaped."""
    import multiprocessing
    from multiprocessing import resource_tracker

    run.runner("fleet-async", tiny=True)(7, episodes=1)
    harness.stop_helpers()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fleet-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
