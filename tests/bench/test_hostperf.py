"""The host-performance harness: deterministic fingerprints, JSON output,
and the regression gate used by CI's perf-smoke job."""

import json

import pytest

from repro.bench.hostperf import (
    check_regression,
    matrix_specs,
    parallel_report_to_jsonable,
    report_to_jsonable,
    run_host_perf,
    run_parallel_comparison,
)


@pytest.fixture(scope="module")
def quick_report():
    return run_host_perf(quick=True, seed=7)


def test_quick_matrix_shape(quick_report):
    names = [s.name for s in quick_report.scenarios]
    assert names == [
        "micro_local",
        "micro_global",
        "latency_mt",
        "scal_numa32",
        "cluster_ring",
        "idle_spin",
        "idle_spin_nosummary",
        "leap_on",
        "leap_off",
        "fault_net",
        "fault_slowcore",
        "fault_storm",
        "cluster_shard2",
    ]
    assert quick_report.total_events > 0
    assert quick_report.aggregate_events_per_sec > 0


def test_idle_spin_pair_simulates_identically(quick_report):
    """idle_spin and idle_spin_nosummary run the same seeded simulation
    with the occupancy-summary fast path on/off; everything but the fast
    path's own hit counter must agree, and the fast-path run must have
    actually exercised the O(1) pass."""
    on = quick_report.scenario("idle_spin").fingerprint
    off = quick_report.scenario("idle_spin_nosummary").fingerprint
    strip = lambda fp: {k: v for k, v in fp.items() if k != "summary_hits"}
    assert strip(on) == strip(off)
    assert on["summary_hits"] > on["schedule_passes"] * 0.9, (
        "idle-heavy steady state should be answered by the fast path"
    )
    assert off["summary_hits"] == 0


def test_virtual_outcomes_are_deterministic(quick_report):
    """Same seed -> same simulated work; only wall-clock may differ."""
    again = run_host_perf(quick=True, seed=7)
    for a, b in zip(quick_report.scenarios, again.scenarios):
        assert a.name == b.name
        assert a.events == b.events, f"{a.name}: event fingerprint changed"
        assert a.virtual_ns == b.virtual_ns, f"{a.name}: virtual time changed"


def test_report_round_trips_through_json(quick_report, tmp_path):
    doc = report_to_jsonable(quick_report, quick=True, seed=7)
    path = tmp_path / "perf.json"
    path.write_text(json.dumps(doc))
    loaded = json.loads(path.read_text())
    assert loaded["meta"]["quick"] is True
    assert loaded["aggregate"]["events"] == quick_report.total_events
    assert len(loaded["scenarios"]) == len(quick_report.scenarios)


def test_regression_gate_passes_against_itself(quick_report, tmp_path):
    baseline = report_to_jsonable(quick_report, quick=True, seed=7)
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    failures = check_regression(quick_report, str(path), max_regression=2.0)
    assert failures == []


def test_regression_gate_fails_on_large_slowdown(quick_report, tmp_path):
    baseline = report_to_jsonable(quick_report, quick=True, seed=7)
    # pretend the committed numbers were 10x faster than what we measured
    for s in baseline["scenarios"]:
        s["events_per_sec"] *= 10
    baseline["aggregate"]["events_per_sec"] *= 10
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    failures = check_regression(quick_report, str(path), max_regression=2.0)
    assert failures, "a 10x slowdown must trip the 2x gate"


def test_regression_gate_announces_missing_baseline_entries(
    quick_report, tmp_path, capsys
):
    """A scenario absent from the baseline is skipped *loudly*."""
    baseline = report_to_jsonable(quick_report, quick=True, seed=7)
    baseline["scenarios"] = [
        s for s in baseline["scenarios"] if s["name"] != "latency_mt"
    ]
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    failures = check_regression(quick_report, str(path), max_regression=2.0)
    out = capsys.readouterr().out
    assert failures == []
    assert "latency_mt: no baseline entry, skipped" in out
    # scenarios with a baseline entry are still compared silently
    assert "micro_local: no baseline entry" not in out


def test_leap_pair_simulates_identically(quick_report):
    """leap_on and leap_off run the same seeded simulation with the
    quiescence leap pinned on/off; unlike the summary pair, *every*
    fingerprint counter must agree — the leap replays its accounting."""
    on = quick_report.scenario("leap_on")
    off = quick_report.scenario("leap_off")
    assert on.fingerprint == off.fingerprint
    assert on.virtual_ns == off.virtual_ns


def test_matrix_specs_carry_seeds_and_names():
    specs = matrix_specs(quick=True, seed=7)
    assert [s.name for s in specs] == [
        "micro_local", "micro_global", "latency_mt",
        "scal_numa32", "cluster_ring", "idle_spin", "idle_spin_nosummary",
        "leap_on", "leap_off",
        "fault_net", "fault_slowcore", "fault_storm", "cluster_shard2",
    ]
    # the seed lives in the spec, fixed before any worker runs
    assert [s.kwargs["seed"] for s in specs] == [
        7, 8, 9, 10, 11, 12, 12, 17, 17, 13, 14, 15, 18,
    ]


def test_parallel_comparison_requires_two_workers():
    with pytest.raises(ValueError, match="jobs >= 2"):
        run_parallel_comparison(jobs=1, quick=True)


def test_parallel_comparison_is_identical_and_serializes(tmp_path):
    cmp = run_parallel_comparison(jobs=2, quick=True, seed=7)
    assert cmp.identical, cmp.mismatches
    doc = parallel_report_to_jsonable(cmp, quick=True, seed=7)
    assert doc["identical"] is True
    assert doc["meta"]["jobs"] == 2
    assert all(s["fingerprint_identical"] for s in doc["scenarios"])
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(doc))
    assert json.loads(path.read_text())["mismatches"] == []
