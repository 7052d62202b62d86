"""Bench CLI observability flags: --metrics-out / --trace-out artifacts."""

import json

from repro.bench.cli import main
from repro.obs import MetricsRegistry


def test_cli_emits_metrics_and_trace(tmp_path, capsys):
    m_out = tmp_path / "m.json"
    t_out = tmp_path / "t.json"
    rc = main(["table1", "--metrics-out", str(m_out), "--trace-out", str(t_out)])
    out = capsys.readouterr().out
    assert rc == 0
    assert str(m_out) in out and str(t_out) in out

    metrics = json.loads(m_out.read_text())
    snap = metrics["metrics"]
    # the acceptance triple: per-queue lost_races, per-lock contention
    # ratio, per-core execution shares
    assert any(k.endswith(".lost_races") for k in snap)
    assert any(k.endswith(".lock.contention_ratio") for k in snap)
    shares = {k: v for k, v in snap.items() if ".shares." in k}
    assert shares and abs(sum(shares.values()) - 1.0) < 1e-9
    # latency histograms export their percentiles as registry paths
    assert any(k.endswith(".latency.submit_to_complete.p99") for k in snap)

    trace = json.loads(t_out.read_text())
    assert trace["traceEvents"]
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_cli_snapshot_diff_round_trip(tmp_path, capsys):
    """Two CLI snapshots diff cleanly through MetricsRegistry.diff; a run
    that names no table instruments Table I's job all the same."""
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["table1", "--metrics-out", str(a)]) == 0
    capsys.readouterr()
    assert main(["scalability", "--metrics-out", str(b)]) == 0
    assert "TABLE1" not in capsys.readouterr().out
    doc_a = json.loads(a.read_text())
    doc_b = json.loads(b.read_text())
    assert doc_a["meta"] == doc_b["meta"]
    snap_a, snap_b = doc_a["metrics"], doc_b["metrics"]
    assert snap_a["pioman.submits"] == 300
    assert MetricsRegistry.diff(snap_a, snap_b) == {}
    # only moved counters are returned
    snap_b["pioman.submits"] += 5
    assert MetricsRegistry.diff(snap_a, snap_b) == {"pioman.submits": 5}
