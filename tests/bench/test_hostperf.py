"""The identity corpus: the matrix's fingerprints, the committed record,
and ``perf --check``."""

import json
import os

import pytest

from repro.bench.hostperf import (
    RECORD,
    check_fingerprints,
    main as perf_main,
    matrix_specs,
    report_to_jsonable,
    run_host_perf,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def matrix_run():
    return run_host_perf()


@pytest.fixture(scope="module")
def record_path(matrix_run, tmp_path_factory):
    path = tmp_path_factory.mktemp("perf") / "record.json"
    path.write_text(json.dumps(report_to_jsonable(matrix_run)))
    return path


def _by_name(report):
    return {s.name: s for s in report}


def test_quick_matrix_shape(matrix_run):
    names = [s.name for s in matrix_run]
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
    assert all(s.fingerprint["fired"] > 0 for s in matrix_run)


def test_fixture_run_matches_committed_record(matrix_run):
    """The committed record is exactly what the matrix computes today, so
    a change that moves a fingerprint must regenerate it (``perf``)."""
    with open(os.path.join(ROOT, RECORD)) as fh:
        committed = json.load(fh)
    assert report_to_jsonable(matrix_run) == committed


def test_idle_spin_pair_simulates_identically(matrix_run):
    """idle_spin and idle_spin_nosummary run the same seeded simulation
    with the occupancy-summary fast path on/off; everything but the fast
    path's own hit counter must agree, and the fast-path run must have
    actually exercised the O(1) pass."""
    by = _by_name(matrix_run)
    on = by["idle_spin"].fingerprint
    off = by["idle_spin_nosummary"].fingerprint
    strip = lambda fp: {k: v for k, v in fp.items() if k != "summary_hits"}
    assert strip(on) == strip(off)
    assert on["summary_hits"] > on["schedule_passes"] * 0.9, (
        "idle-heavy steady state should be answered by the fast path"
    )
    assert off["summary_hits"] == 0


def test_leap_pair_simulates_identically(matrix_run):
    """leap_on and leap_off run the same seeded simulation with the
    quiescence leap pinned on/off; unlike the summary pair, *every*
    fingerprint counter must agree — the leap replays its accounting."""
    by = _by_name(matrix_run)
    on, off = by["leap_on"], by["leap_off"]
    assert on.fingerprint == off.fingerprint
    assert on.virtual_ns == off.virtual_ns


def test_report_round_trips_through_json(matrix_run, tmp_path):
    doc = report_to_jsonable(matrix_run)
    path = tmp_path / "perf.json"
    path.write_text(json.dumps(doc))
    loaded = json.loads(path.read_text())
    assert loaded == doc
    assert loaded["meta"] == {"kind": "host_perf", "seed": 7}
    assert [s["name"] for s in loaded["scenarios"]] == [s.name for s in matrix_run]


def test_check_passes_on_its_own_output(record_path, capsys):
    assert perf_main(["--check", str(record_path)]) == 0
    assert "perf check ok: 13 scenarios" in capsys.readouterr().out


def test_check_fails_naming_scenario_and_counter(record_path, tmp_path, capsys):
    doc = json.loads(record_path.read_text())
    doc["scenarios"][9]["fingerprint"]["retransmits"] += 1  # fault_net
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(doc))
    assert perf_main(["--check", str(doctored)]) == 1
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert line.startswith("FINGERPRINT MISMATCH: fault_net: retransmits ")
    # the blame report names the same scenario and counter
    assert "1 of 13 scenarios moved" in out
    assert "fault_net" in out and "retransmits" in out


def test_check_fails_on_scenario_missing_from_record(record_path, tmp_path, capsys):
    doc = json.loads(record_path.read_text())
    doc["scenarios"] = [s for s in doc["scenarios"] if s["name"] != "latency_mt"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(doc))
    assert perf_main(["--check", str(partial)]) == 1
    assert "latency_mt: missing from the record" in capsys.readouterr().err


def test_check_never_overwrites_its_record(record_path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = record_path.read_text()
    assert perf_main(["--check", str(record_path)]) == 0
    assert os.listdir(tmp_path) == []  # no default output beside the check
    with pytest.raises(SystemExit) as exc:
        perf_main(["--check", str(record_path), "--out", str(record_path)])
    assert exc.value.code == 2
    assert record_path.read_text() == before


def test_check_fingerprints_lists_both_set_differences():
    a = {"scenarios": [{"name": "x", "fingerprint": {"fired": 1}}]}
    b = {"scenarios": [{"name": "y", "fingerprint": {"fired": 1}}]}
    assert check_fingerprints(a, b) == [
        "x: missing from the record", "y: in the record but not run",
    ]


def test_matrix_specs_carry_seeds_and_names():
    specs = matrix_specs()
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
