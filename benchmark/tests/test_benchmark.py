"""Tests of the benchmark harness at smoke size.

    python3 -m pytest benchmark/tests

They check the output contract against ``BENCHMARK.json``, that every
correctness failure turns into a non-zero exit, and that neither
sharding nor profiling changes the simulated outcome.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads  # noqa: E402
from layers import LAYERS, OTHER_GROUPS, Probe, layer_metrics  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)
SEED = 7


def run_bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "benchmark", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed_rows(stdout: str) -> dict:
    """{workload: {metric: unit}} from the human-readable blocks."""
    rows: dict = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = rows.setdefault(line.split()[1], {})
        elif line.startswith("  ") and current is not None:
            name, unit = line.split()[:2]
            if name != "metric":
                current[name] = unit
    return rows


def copy_checkout(dst, *, with_src: bool = True) -> str:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, os.path.join(dst, "benchmark"), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"), ignore=ignore)
    return str(dst)


@pytest.fixture(scope="module")
def timed():
    return run_bench("--smoke", "--reps", "2")


@pytest.fixture(scope="module")
def traced():
    return run_bench("--smoke", "--reps", "1", "--trace")


def test_timed_run_reports_every_end_to_end_metric(timed):
    assert timed.returncode == 0, timed.stdout + timed.stderr
    result = result_line(timed)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    rows = printed_rows(timed.stdout)
    assert sorted(rows) == sorted(workloads.WORKLOADS)
    for workload, printed in rows.items():
        assert printed == want
        for name, unit in want.items():
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0
    assert len(result["metrics"]) == len(want) * len(rows)


def test_traced_run_reports_every_per_layer_metric(traced):
    assert traced.returncode == 0, traced.stdout + traced.stderr
    result = result_line(traced)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    rows = printed_rows(traced.stdout)
    assert sorted(rows) == sorted(workloads.WORKLOADS)
    for workload, printed in rows.items():
        assert printed == want
    assert len(result["metrics"]) == len(want) * len(rows)


def test_layer_shares_sum_to_one(traced):
    metrics = result_line(traced)["metrics"]
    for workload in workloads.WORKLOADS:
        total = sum(metrics[f"{workload}.{g}.share"]["value"] for g in LAYERS + OTHER_GROUPS)
        assert total == pytest.approx(1.0, abs=0.01)


def test_predictions_hold(traced):
    value = {k: v["value"] for k, v in result_line(traced)["metrics"].items()}
    for workload in ("pioman_busy", "cluster_rpc", "cluster_sharded"):
        assert value[f"{workload}.core.leap.successes"] == 0
    assert value["cluster_rpc.cluster.shard.windows"] == 0
    assert value["cluster_sharded.cluster.shard.windows"] > 0
    executed = value["idle_poll.sim.events_executed"]
    replayed = value["idle_poll.sim.events_replayed"]
    assert replayed / (executed + replayed) > 0.5
    for workload in ("pioman_busy", "idle_poll"):
        assert value[f"{workload}.net.frames"] == 0
        assert value[f"{workload}.nmad.sends"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_incomplete_operations_fail_the_run(workload):
    proc = run_bench("--smoke", "--reps", "1", "--workload", workload,
                     "--deadline-ns", "100000")
    assert proc.returncode != 0
    result = result_line(proc)
    assert not result["correct"] and result["failed"] > 0


def test_doctored_reference_digest_fails_the_run(tmp_path):
    root = copy_checkout(tmp_path)
    path = os.path.join(root, "benchmark", "reference.json")
    with open(path) as fh:
        reference = json.load(fh)
    reference["smoke"]["idle_poll"] = "0" * 64
    with open(path, "w") as fh:
        json.dump(reference, fh)
    proc = run_bench("--smoke", "--reps", "1", "--workload", "idle_poll", root=root)
    assert proc.returncode != 0
    assert not result_line(proc)["correct"]
    # off the reference seed the recorded digest is not consulted
    proc = run_bench("--smoke", "--reps", "1", "--workload", "idle_poll",
                     "--seed", "11", root=root)
    assert proc.returncode == 0 and result_line(proc)["correct"]


def test_without_the_package_source_it_fails_before_any_result(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    proc = run_bench("--smoke", "--reps", "1", root=root)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _run(workload, *, profile=False, **kwargs):
    with Probe(profile=profile) as probe:
        outcome = workloads.RUNNERS[workload](SEED, "smoke", probe, **kwargs)
    return outcome, layer_metrics(outcome, probe, probe.makespan_ns(), 1.0)


def test_forked_shards_match_the_serial_single_shard_run():
    forked, _ = _run("cluster_sharded")
    serial, _ = _run("cluster_sharded", nshards=1, serial=True)
    assert forked.completed == forked.attempted
    assert forked.digest == serial.digest


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_profiling_leaves_the_outcome_unchanged(workload):
    plain, plain_layers = _run(workload)
    again, _ = _run(workload)
    profiled, profiled_layers = _run(workload, profile=True)
    assert plain.digest == again.digest == profiled.digest
    for key in ("sim.events_executed", "sim.events_replayed"):
        assert plain_layers[key] == profiled_layers[key]
