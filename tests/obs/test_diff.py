"""bench diff: ranked regression blame between two recorded documents."""

import json

import pytest

from repro.bench.cli import main as bench_main
from repro.obs import diff_docs, diff_files, format_diff
from repro.obs.diff import doc_kind


def _hostperf_doc(*, retransmits=10, submits=64):
    def scen(name, fp):
        return {"name": name, "fingerprint": fp}

    return {
        "meta": {"kind": "host_perf", "seed": 7},
        "scenarios": [
            scen("steady", {"submits": submits, "executions": 64}),
            scen("fault_net",
                 {"retransmits": retransmits, "drops": 4, "messages": 24}),
        ],
    }


def test_hostperf_diff_ranks_regressed_scenario_first():
    """The furthest-moved fingerprint first; dominant names the subsystem."""
    a = _hostperf_doc()
    b = _hostperf_doc(retransmits=18, submits=65)
    report = diff_docs(a, b)
    assert report.kind == "host_perf"
    assert [e.name for e in report.entries] == ["fault_net", "steady"]
    assert report.entries[0].ratio is None
    assert "nic/retransmit" in report.entries[0].dominant
    assert "retransmits" in report.entries[0].dominant
    assert report.headline == "2 of 2 scenarios moved"
    text = format_diff(report)
    assert text.splitlines()[1].lstrip().startswith("1. fault_net")
    assert "1 counter moved" in text
    assert "retransmits: 10 -> 18 (+80.0%)" in text
    assert "submits: 64 -> 65 (+1.6%)" in text


def test_hostperf_diff_improvement_is_not_ranked_first():
    """Speed is not part of a fingerprint: a scenario that only ran faster
    (an old record's events/s) is identical and left out of the ranking."""
    a = _hostperf_doc()
    b = _hostperf_doc(submits=65)
    a["scenarios"][1]["events_per_sec"] = 100_000.0
    b["scenarios"][1]["events_per_sec"] = 140_000.0
    report = diff_docs(a, b)
    assert [e.name for e in report.entries] == ["steady"]
    assert report.headline == "1 of 2 scenarios moved"


def test_hostperf_diff_of_identical_records_is_empty():
    report = diff_docs(_hostperf_doc(), _hostperf_doc())
    assert report.entries == []
    assert "(no differences)" in format_diff(report)


def test_hostperf_diff_names_a_changed_string_counter():
    a = {"meta": {"kind": "host_perf"},
         "scenarios": [{"name": "shard", "fingerprint": {"run_fingerprint": "ab"}}]}
    b = {"meta": {"kind": "host_perf"},
         "scenarios": [{"name": "shard", "fingerprint": {"run_fingerprint": "cd"}}]}
    (entry,) = diff_docs(a, b).entries
    assert entry.dominant == "shard (run_fingerprint changed)"


def _analysis_doc(*, makespan=80_000, retx_events=2):
    return {
        "meta": {"kind": "trace_analysis", "makespan_ns": makespan,
                 "scenario": "fault_net"},
        "span_ns": makespan,
        "cores": [],
        "levels": [{"level": "machine", "mean_ns": 900, "count": 4}],
        "locks": [{"lock": "lock:q", "total_wait_ns": 300}],
        "faults": [{"kind": "retransmit", "events": retx_events}],
        "completion_p50_ns": 4000,
        "completion_p99_ns": 9000,
    }


def test_analysis_diff_blames_fault_counters():
    a = _analysis_doc()
    b = _analysis_doc(makespan=96_000, retx_events=6)
    report = diff_docs(a, b)
    assert report.kind == "analysis"
    (entry,) = report.entries
    assert entry.name == "fault_net"
    assert entry.ratio == pytest.approx(80_000 / 96_000)
    assert "makespan +20.0%" in entry.headline
    assert "nic/retransmit" in entry.dominant
    names = [it.name for it in entry.items]
    assert "fault.retransmit.events" in names and "makespan_ns" in names


def test_metrics_diff_lists_moved_counters():
    a = {"metrics": {"nic.0.retransmits": 2, "pioman.executions": 50,
                     "note": "text"}}
    b = {"metrics": {"nic.0.retransmits": 8, "pioman.executions": 50,
                     "note": "other"}}
    report = diff_docs(a, b)
    assert report.kind == "metrics"
    items = report.entries[0].items
    assert [it.name for it in items] == ["nic.0.retransmits"]
    assert items[0].subsystem == "nic"


def test_kind_mismatch_and_unknown_doc_raise():
    with pytest.raises(ValueError, match="cannot diff"):
        diff_docs(_hostperf_doc(), _analysis_doc())
    with pytest.raises(ValueError, match="unrecognized"):
        doc_kind({"what": "ever"})


def test_trace_docs_are_analyzed_then_diffed():
    from repro.obs import chrome_trace
    from repro.sim.trace import Tracer

    tr = Tracer(enabled=True)
    tr.emit(5000, "pioman", "core0", "completed t", phase="run", task="t",
            queue="q:machine", core=0, start=2000, complete=True)
    doc = chrome_trace(tr, meta={"ncores": 1})
    report = diff_docs(doc, doc)
    assert report.kind == "analysis"
    assert report.entries[0].items == []  # identical runs: nothing moved


def test_cli_diff_subcommand(tmp_path, capsys):
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps(_hostperf_doc()))
    pb.write_text(json.dumps(_hostperf_doc(retransmits=18)))
    out_json = tmp_path / "diff.json"
    rc = bench_main(["diff", str(pa), str(pb), "--json-out", str(out_json)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bench diff (host_perf)" in out
    assert "fault_net" in out
    doc = json.loads(out_json.read_text())
    assert doc["kind"] == "host_perf"
    assert doc["entries"][0]["name"] == "fault_net"

    # mismatched kinds exit nonzero with a message on stderr
    pc = tmp_path / "c.json"
    pc.write_text(json.dumps(_analysis_doc()))
    rc = bench_main(["diff", str(pa), str(pc)])
    assert rc == 1
    assert "cannot diff" in capsys.readouterr().err


def _matrix_doc(names, fired=100):
    return {
        "meta": {"kind": "host_perf"},
        "scenarios": [{"name": n, "fingerprint": {"fired": fired}} for n in names],
    }


# the matrix before the fault/core/leap scenarios were added — the shape
# of a committed BENCH_host_perf.json recorded several PRs ago
_OLD7 = [
    "micro_local", "micro_global", "latency_mt", "scal_numa32",
    "cluster_ring", "idle_spin", "idle_spin_nosummary",
]
_NEW = _OLD7[:-1] + [
    "fault_net", "fault_slowcore", "fault_storm",
    "core_wheel", "core_heap", "leap_on", "leap_off",
]


def test_hostperf_diff_reports_added_and_removed_scenarios():
    """Matrix growth: an old record diffs cleanly against a wider run,
    with the set change reported explicitly instead of raising."""
    report = diff_docs(_matrix_doc(_OLD7), _matrix_doc(_NEW, fired=110))
    assert report.kind == "host_perf"
    assert report.added == sorted(set(_NEW) - set(_OLD7))
    assert report.removed == ["idle_spin_nosummary"]
    # comparable scenarios rank on their moved counters; set-only entries last
    by_name = {e.name: e for e in report.entries}
    assert by_name["micro_local"].items[0].rel == pytest.approx(0.1)
    assert by_name["leap_on"].items == []
    assert by_name["leap_on"].headline == "added (only in B)"
    assert by_name["idle_spin_nosummary"].headline == "removed (only in A)"
    assert report.entries[-1].name == "idle_spin_nosummary"
    assert "added" in report.headline and "removed" in report.headline
    text = format_diff(report)
    assert "added in B: " in text and "leap_on" in text
    assert "removed in B: idle_spin_nosummary" in text
    # JSON artifact carries the set change for machine consumers (CI)
    doc = report.to_jsonable()
    assert doc["added"] == report.added and doc["removed"] == report.removed


def test_hostperf_diff_fully_disjoint_sets_do_not_raise():
    report = diff_docs(_matrix_doc(["gone"]), _matrix_doc(["fresh"]))
    assert report.added == ["fresh"] and report.removed == ["gone"]
    assert all(e.ratio is None for e in report.entries)
    assert "(no differences)" not in format_diff(report)


def test_diff_files_roundtrip(tmp_path):
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps(_hostperf_doc()))
    pb.write_text(json.dumps(_hostperf_doc(retransmits=11)))
    report = diff_files(str(pa), str(pb))
    assert report.entries[0].name == "fault_net"
    assert report.headline == "1 of 2 scenarios moved"
