"""Workload smoke runs, output checks, and tracing's virtual-time identity."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import child, workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_every_check(name):
    session = child.Session(name, seed=1, tiny=True)
    result = child.measure(session, seconds=0.0)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == 4 * len(session.plan.jobs)
    assert result["rank_slices_per_s"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracing_leaves_virtual_time_unchanged(name):
    plan = workloads.make_plan(name, seed=2, tiny=True)
    plain = workloads.Run(plan)
    plain.launch()
    plain.run()
    with Tracer() as tracer:
        traced = workloads.Run(plan)
        tracer.begin()
        traced.launch()
        traced.run()
        tracer.end()
    assert traced.outcome().signature == plain.outcome().signature
    assert sum(tracer.self_ns.values()) == tracer.wall_ns
    assert tracer.layers["apps"].resumes > 0
    assert not tracer.stack


def test_failed_check_names_workload_job_check_and_values():
    session = child.Session("job_mix", seed=1, tiny=True)
    session.run()
    session.pinned = json.loads(json.dumps(session.reference))
    session.pinned["counters"]["slices"] += 1
    session.run()
    assert session.failed == len(session.plan.jobs)
    line = session.failures[-1]
    expected = session.pinned["counters"]["slices"]
    assert line == (
        f"job_mix job=* check=pinned:counters.slices expected={expected} "
        f"observed={expected - 1}"
    )


def test_sage_output_check_catches_a_wrong_dt():
    plan = workloads.make_plan("job_mix", seed=1, tiny=True)
    sage_job = next(jp for jp in plan.jobs if jp.expect is not None)
    sage_job.expect += 1e-9
    run = workloads.Run(plan)
    run.launch()
    run.run()
    out = run.outcome()
    assert out.failed_jobs == {sage_job.name}
    assert f"job={sage_job.name} check=sage_dt" in out.failures[0]


def test_seed_zero_matches_the_pins():
    pins = json.loads(child.PINS.read_text())
    for name in workloads.WORKLOADS:
        run = workloads.Run(workloads.make_plan(name, 0))
        run.launch()
        run.run()
        out = run.outcome()
        assert not out.failures
        assert out.signature == pins[name], name


def test_run_without_simulator_source_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nn_dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
