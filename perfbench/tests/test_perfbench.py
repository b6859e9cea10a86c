"""The benchmark's own tests.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import cases, measure, run  # noqa: E402
from perfbench.tracing import LAYERS, Spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Per-layer metrics that are host times or ratios of host times.
TIMED = {"sim.us_per_event", "trace.overhead", "analysis.parallel_efficiency"}


def _tiny(workload, trace):
    result, report = run.benchmark(workload, 0, 0, trace, size_name="tiny")
    assert result is not None, report["problems"]
    return result, report


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(cases.WORKLOADS)
    assert tuple(run.WORKLOADS) == cases.WORKLOADS


@pytest.mark.parametrize("workload", cases.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_tiny_and_emits_the_spec_metrics(workload, trace):
    result, report = _tiny(workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == next(m["unit"] for m in listed
                                      if m["name"] == name)
    assert report["host"]["seed"] == 0
    assert report["spans"] and all(s["end_s"] is not None
                                   for s in report["spans"])


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, _ = _tiny(workload, True)
    second, _ = _tiny(workload, True)
    counts = [name for name in first["metrics"]
              if not name.endswith("_s") and name not in TIMED]
    assert "sim.events" in counts and "bus.polls_per_event" in counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_layer_self_times_partition_the_traced_total():
    result, _ = _tiny(cases.DIRECTORY, True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    parts = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert parts == pytest.approx(metrics["trace.total_s"], rel=1e-9)
    assert metrics["trace.total_s"] > 0


def test_end_to_end_traffic_repeats_exactly():
    first, _ = _tiny(cases.SWEEP, False)
    second, _ = _tiny(cases.SWEEP, False)
    for name in ("sim_cycles", "msgs_per_txn", "txns_per_op"):
        assert first["metrics"][name] == second["metrics"][name]


def test_injected_sweep_fault_counts_as_a_failure():
    from repro.faults import FaultPlan

    tally = measure.Tally()
    size = cases.TINY[cases.SWEEP]
    result = measure.run_sweep(0, size, 1, Spans(), tally, {},
                               faults=FaultPlan.parse("raise@0", seed=0))
    assert result is not None
    _, plan, _ = result
    assert tally.failed > 0 and tally.failed / tally.attempted > 0
    assert sum(plan.resilience["retries"].values()) == 1


def test_lock_check_counts_passages():
    size = cases.TINY[cases.LOCKS]
    config = cases.make_config(cases.LOCKS, 0, size.processors)
    stats = cases.make_simulator(
        config, cases.make_programs(cases.LOCKS, config, size.rounds)).run()
    assert cases.check(cases.LOCKS, stats, size.processors, size.rounds) == []
    assert cases.check(cases.LOCKS, stats, size.processors,
                       size.rounds + 1) != []


def test_directory_traffic_matches_the_engine_bench_record():
    """Same machine, same seed: the figure ``BENCH_engine.json`` keeps
    in its topology section."""
    record = ROOT / "BENCH_engine.json"
    if not record.is_file():
        pytest.skip("no BENCH_engine.json in this checkout")
    points = json.loads(record.read_text())["topology"]["points"]
    expected = next(p["fabrics"]["directory"]["msgs_per_txn"]
                    for p in points if p["processors"] == 256)
    tally = measure.Tally()
    sample, _, _ = measure._simulate(cases.DIRECTORY, 0,
                                     cases.FULL[cases.DIRECTORY], Spans(),
                                     tally, {})
    assert tally.failed == 0
    assert sample.msgs / sample.txns == expected


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "locks-16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
