"""Serial/parallel equivalence: the core contract of repro.par.

``--jobs N`` must be a pure wall-clock optimization — same scenario
fingerprints, same merged metrics, same report text as serial execution,
for any worker count and any completion order.
"""

import json
import os
import re
import time

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.hostperf import RECORD, report_to_jsonable, run_host_perf
from repro.par import JobSpec, has_fork, run_jobs

pytestmark = pytest.mark.skipif(not has_fork(), reason="platform lacks fork")

#: process-global debug ids (task/request/frame "#17") differ between a
#: serial run and a forked worker without reflecting simulation state —
#: the golden determinism test normalizes them the same way
_GLOBAL_ID = re.compile(r"#\d+")

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# perf matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [2, 3])
def test_perf_matrix_fingerprints_identical_across_worker_counts(jobs):
    """The committed record is the serial matrix (tests/bench/
    test_hostperf.py checks that); a fanned-out run must equal it."""
    with open(os.path.join(ROOT, RECORD)) as fh:
        committed = json.load(fh)
    assert report_to_jsonable(run_host_perf(jobs=jobs)) == committed


def test_perf_matrix_out_of_order_completion_merges_canonically():
    """Fast jobs finishing before slow ones must not reorder results."""
    specs = [
        JobSpec("slow", "tests.par.jobhelpers:sleepy", {"seconds": 0.25}),
        JobSpec("fast1", "tests.par.jobhelpers:echo", {"value": "a"}),
        JobSpec("fast2", "tests.par.jobhelpers:echo", {"value": "b"}),
    ]
    t0 = time.perf_counter()
    results = run_jobs(specs, jobs=3)
    assert time.perf_counter() - t0 < 5.0
    assert [r.name for r in results] == ["slow", "fast1", "fast2"]
    assert [r.value for r in results] == ["overslept", "a", "b"]


# ----------------------------------------------------------------------
# bench CLI surface
# ----------------------------------------------------------------------
def _run_cli(argv, tmp_path, capsys, tag):
    json_out = tmp_path / f"{tag}.json"
    metrics_out = tmp_path / f"{tag}_metrics.json"
    trace_out = tmp_path / f"{tag}_trace.json"
    rc = bench_main(
        argv
        + [
            "--json", str(json_out),
            "--metrics-out", str(metrics_out),
            "--trace-out", str(trace_out),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # the artifact paths differ by construction; strip those lines
    report = "\n".join(
        line for line in out.splitlines() if not line.startswith("wrote ")
        and "wrote " not in line
    )
    return (
        report,
        json.loads(json_out.read_text()),
        json.loads(metrics_out.read_text())["metrics"],
        _GLOBAL_ID.sub("#", trace_out.read_text()),
    )


def test_cli_jobs2_report_json_metrics_and_trace_match_serial(tmp_path, capsys):
    argv = ["table1", "scalability"]
    ser_report, ser_json, ser_metrics, ser_trace = _run_cli(
        argv, tmp_path, capsys, "serial"
    )
    par_report, par_json, par_metrics, par_trace = _run_cli(
        argv + ["--jobs", "2"], tmp_path, capsys, "par"
    )
    assert par_report == ser_report
    assert par_json == ser_json
    assert par_metrics == ser_metrics
    assert par_trace == ser_trace

    # the byte-identity above must not be vacuous for causal edges:
    # both fan-outs record them, with intact args, on remapped pids
    def edge_events(trace_text):
        doc = json.loads(trace_text)
        return [
            e for e in doc["traceEvents"]
            if (e.get("args") or {}).get("edge")
        ]

    ser_edges = edge_events(ser_trace)
    par_edges = edge_events(par_trace)
    assert len(ser_edges) > 0
    assert ser_edges == par_edges
    for ev in ser_edges[:20]:
        assert {"edge", "cause", "effect", "start"} <= set(ev["args"])
