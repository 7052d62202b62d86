"""Offline trace analysis: synthetic traces, doc parity, registry consistency."""

import json

import pytest

from repro.bench.cli import main
from repro.bench.task_microbench import measure_queue
from repro.obs import (
    MetricsRegistry,
    analyze_trace,
    analyze_trace_file,
    chrome_trace,
    format_analysis,
)
from repro.obs.analyze import queue_level
from repro.sim.trace import Tracer
from repro.topology.builder import MACHINES


def test_queue_level_mapping():
    assert queue_level("q:core#3") == "core"
    assert queue_level("q:cache#0") == "cache"
    assert queue_level("q:chip#1") == "chip"
    assert queue_level("q:numa#0") == "node"
    assert queue_level("q:machine") == "global"
    assert queue_level("machine") == "global"
    assert queue_level("q:custom#9") == "custom"


def _synthetic_tracer() -> Tracer:
    """One submitted task, run on core 1; one contended lock handoff."""
    tr = Tracer(enabled=True)
    tr.emit(1000, "pioman", "core0", "submit t1 -> q:machine",
            phase="submit", task="t1", queue="q:machine", core=0)
    tr.emit(5000, "pioman", "core1", "completed t1",
            phase="run", task="t1", queue="q:machine", core=1,
            start=2000, complete=True)
    tr.emit(4000, "lock", "core1", "contended q:machine.lock",
            phase="lock", lock="q:machine.lock", core=1,
            wait_ns=700, start=3300)
    return tr


def test_analyze_synthetic_tracer():
    a = analyze_trace(_synthetic_tracer())
    assert a.submits == 1 and a.runs == 1 and a.completions == 1
    assert a.unmatched_submits == 0
    assert (a.t_start, a.t_end) == (1000, 5000)

    # core 1 was busy 2000..5000 over a 4000 ns span
    assert len(a.cores) == 2
    assert a.cores[1].busy_ns == 3000 and a.cores[1].runs == 1
    assert a.cores[1].utilization == pytest.approx(3000 / 4000)
    assert a.cores[0].busy_ns == 0

    # submit at 1000, first run start at 2000 -> 1000 ns at the global level
    lv = a.level("global")
    assert lv is not None
    assert lv.count == 1 and lv.p50_ns == 1000 and lv.p99_ns == 1000

    assert a.slowest[0].task == "t1"
    assert a.slowest[0].latency_ns == 5000 - 1000

    assert a.locks[0].lock == "q:machine.lock"
    assert a.locks[0].contended == 1 and a.locks[0].max_wait_ns == 700


def test_analyze_chrome_doc_matches_live_tracer():
    tr = _synthetic_tracer()
    live = analyze_trace(tr)
    doc = chrome_trace(tr, meta={"ncores": 2})
    from_doc = analyze_trace(doc)
    assert from_doc.submits == live.submits
    assert from_doc.runs == live.runs
    assert from_doc.completions == live.completions
    assert from_doc.level("global").count == live.level("global").count
    assert from_doc.level("global").p50_ns == live.level("global").p50_ns
    assert [c.busy_ns for c in from_doc.cores] == [c.busy_ns for c in live.cores]
    assert from_doc.locks[0].contended == 1


def test_unmatched_submits_and_ncores_padding():
    tr = Tracer(enabled=True)
    tr.emit(10, "pioman", "core0", "submit ghost -> q:core#0",
            phase="submit", task="ghost", queue="q:core#0", core=0)
    a = analyze_trace(tr, ncores=4)
    assert a.submits == 1 and a.runs == 0
    assert a.unmatched_submits == 1
    assert a.levels == [] and a.slowest == []
    # idle cores are reported, not omitted
    assert [c.core for c in a.cores] == [0, 1, 2, 3]
    # a zero-span trace has no denominator: utilization is n/a, not 0%
    assert all(c.utilization is None for c in a.cores)


def test_submit_matches_only_runs_at_or_after_it():
    """A run slice that started before the submit belongs to a prior life."""
    tr = Tracer(enabled=True)
    tr.emit(100, "pioman", "core0", "completed t",
            phase="run", task="t", queue="q:machine", core=0,
            start=50, complete=True)
    tr.emit(200, "pioman", "core0", "submit t -> q:machine",
            phase="submit", task="t", queue="q:machine", core=0)
    tr.emit(900, "pioman", "core1", "completed t",
            phase="run", task="t", queue="q:machine", core=1,
            start=600, complete=True)
    a = analyze_trace(tr)
    lv = a.level("global")
    assert lv.count == 1 and lv.p50_ns == 400  # 600 - 200, not 50 - 200
    assert a.slowest[0].latency_ns == 700  # 900 - 200


def test_format_analysis_sections_and_empty_placeholders():
    text = format_analysis(analyze_trace(_synthetic_tracer()))
    for header in (
        "== trace analysis",
        "== per-core utilization ==",
        "== submit→run latency by queue level ==",
        "== lock contention ==",
        "slowest tasks (submit→complete) ==",
    ):
        assert header in text
    assert "core0" in text and "core1" in text
    empty = format_analysis(analyze_trace(Tracer(enabled=True)))
    assert "(no core activity traced)" in empty
    assert "(no submit/run pairs traced)" in empty
    assert "(no contended lock handoffs traced)" in empty


def test_analysis_counts_match_registry_counters():
    """Trace-derived totals agree with the MetricsRegistry scrape."""
    machine = MACHINES["borderline"]()
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True)
    measure_queue(
        machine, machine.all_cores(), label="global",
        reps=10, seed=3, registry=registry, tracer=tracer,
    )
    snap = registry.snapshot()
    a = analyze_trace(tracer, ncores=machine.ncores)
    assert a.submits == snap["pioman.submits"]
    assert a.completions == snap["pioman.tasks_completed"]
    assert sum(c.runs for c in a.cores) == a.runs
    assert len(a.cores) == machine.ncores
    # every analyzed latency also landed in the live histogram
    assert snap["pioman.latency.submit_to_complete.count"] == a.completions
    assert a.level("global").count > 0


def test_cli_analyze_subcommand(tmp_path, capsys):
    t_out = tmp_path / "t.json"
    a_out = tmp_path / "a.json"
    assert main(["table1", "--trace-out", str(t_out)]) == 0
    capsys.readouterr()
    rc = main(["analyze", "--trace", str(t_out), "--analysis-out", str(a_out)])
    out = capsys.readouterr().out
    assert rc == 0
    # borderline has 8 cores; every one must be named even if idle
    for c in range(8):
        assert f"core{c}" in out
    doc = json.loads(a_out.read_text())
    assert len(doc["cores"]) == 8
    assert doc["submits"] > 0 and doc["completions"] > 0 and doc["span_ns"] > 0
    levels = {lv["level"]: lv for lv in doc["levels"]}
    assert levels["global"]["p50_ns"] > 0

    # the file-loading path agrees with the CLI output
    again = analyze_trace_file(str(t_out))
    assert again.submits == doc["submits"]


def test_meta_header_in_text_and_json():
    tr = _synthetic_tracer()
    a = analyze_trace(tr, scenario="unit")
    assert a.meta["makespan_ns"] == a.span_ns == 4000
    assert a.meta["events"] == len(tr.records) == 3
    # 3 events over 4000 ns of virtual time
    assert a.meta["events_per_sec"] == pytest.approx(3 / 4e-6, rel=0.01)
    assert a.meta["scenario"] == "unit"
    text = format_analysis(a)
    meta_line = next(ln for ln in text.splitlines() if "meta:" in ln)
    assert "makespan=4000 ns" in meta_line
    assert "events=3" in meta_line
    assert "scenario=unit" in meta_line
    assert a.to_jsonable()["meta"] == a.meta


def test_meta_scenario_read_from_doc_otherdata():
    doc = chrome_trace(_synthetic_tracer(), meta={"ncores": 2,
                                                  "scenario": "from_doc"})
    a = analyze_trace(doc)
    assert a.meta["scenario"] == "from_doc"
    # an explicit argument wins over the recorded name
    assert analyze_trace(doc, scenario="override").meta["scenario"] == "override"


def test_format_empty_trace_meta_is_na():
    a = analyze_trace(Tracer(enabled=True))
    assert a.meta["makespan_ns"] == 0
    assert a.meta["events"] == 0
    assert a.meta["events_per_sec"] is None
    text = format_analysis(a)
    meta_line = next(ln for ln in text.splitlines() if "meta:" in ln)
    assert "events/sim-sec=n/a" in meta_line
    assert "scenario=" not in meta_line


def test_format_fault_only_trace():
    """Fault events but no completions: section appears, nothing crashes."""
    tr = Tracer(enabled=True)
    tr.emit(500, "faults", "net", "drop frame", phase="fault", fault="drop")
    tr.emit(900, "faults", "net", "retransmit", phase="fault",
            fault="retransmit")
    a = analyze_trace(tr)
    assert a.fault_events == 2
    assert [fi.kind for fi in a.faults] == ["drop", "retransmit"]
    assert all(fi.impacted_tasks == 0 and fi.tail_ratio is None
               for fi in a.faults)
    text = format_analysis(a)
    assert "== injected-fault tail impact ==" in text
    assert "drop" in text and "retransmit" in text
    assert "n/a" in text  # percentiles have no completions to draw from


def test_format_fault_impact_renders_p999():
    tr = _synthetic_tracer()
    tr.emit(1500, "faults", "net", "drop frame", phase="fault", fault="drop")
    a = analyze_trace(tr)
    (fi,) = a.faults
    assert fi.kind == "drop" and fi.impacted_tasks >= 1
    text = format_analysis(a)
    assert "p999" in text and "drop" in text


def test_format_single_core_trace():
    tr = Tracer(enabled=True)
    tr.emit(100, "pioman", "core0", "submit solo -> q:core#0",
            phase="submit", task="solo", queue="q:core#0", core=0)
    tr.emit(800, "pioman", "core0", "completed solo", phase="run",
            task="solo", queue="q:core#0", core=0, start=300, complete=True)
    a = analyze_trace(tr)
    assert len(a.cores) == 1
    assert a.cores[0].utilization == pytest.approx(500 / 700)
    text = format_analysis(a)
    assert "core0" in text and "core1" not in text
    assert "level=core" in text or "core " in text
