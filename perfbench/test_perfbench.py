"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q

They start real workload processes, so they take a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
import workload

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _bench(*args, cwd=run.ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return out


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_short_mode_prints_every_metric_with_its_unit(name, trace):
    out = _bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    record = json.loads(out.stdout.splitlines()[-2])["run_record"]
    assert record["velocity_dofs"] == workload.WORKLOADS[name]["velocity_dofs"]
    assert record["src_lines"] > 0


def _traced(name, tmp_path, index, overrides=None):
    deadline = time.monotonic() + run.RUN_LIMIT_S
    return run.run_process(
        name, True, str(tmp_path / ("p%d" % index)), run.child_env(), deadline, overrides
    )


def test_two_traced_runs_give_identical_counts(tmp_path):
    first, second = (_traced("quickstart_cli", tmp_path, i) for i in range(2))
    assert first["ok"] and second["ok"]
    assert first["counts"] == second["counts"]
    assert first["counts"]["linsolve.momentum_calls"] == workload.WORKLOADS["quickstart_cli"]["n_steps"]
    for fig in (first, second):
        assert sum(fig["layers"].values()) / fig["wall_s"] >= 0.95


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_injected_failure_is_counted_and_yields_no_timing(name, tmp_path):
    fig = _traced(name, tmp_path, 0, overrides={"tol_momentum": 1e-30})
    assert not fig["ok"]
    assert fig["exit_code"] == 1
    assert "wall_s" not in fig and "layers" not in fig
    assert run.summarize([fig], trace=0) == {}
    metrics = run.summarize([fig], trace=1)
    assert metrics == {"fail_ratio": {"value": 1.0, "unit": "ratio"}}


def test_self_time_subtracts_direct_children():
    tree = [
        ["outer", 0, 10_000_000_000, None],
        ["inner", 2_000_000_000, 5_000_000_000, 0],
        ["leaf", 3_000_000_000, 4_000_000_000, 1],
        ["inner", 6_000_000_000, 7_000_000_000, 0],
    ]
    assert spans.self_times(tree) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = _bench("--workload", "quickstart_cli", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
