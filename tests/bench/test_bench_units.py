"""Unit tests for the benchmark harness library (tiny scales)."""

import os
import re

import pytest

from repro.bench.latency import run_latency_once
from repro.bench.overlap import compute_grid, run_overlap_once
from repro.bench.paper_targets import ANOMALIES, PAPER_TABLES, targets_for
from repro.bench.reporting import (
    format_latency,
    format_microbench,
    format_overlap,
    sparkline,
)
from repro.bench.task_microbench import measure_queue, run_task_microbench
from repro.mpi import MadMPI, MVAPICHLike
from repro.topology import CpuSet, borderline, smp

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_measure_queue_basic():
    m = borderline()
    row = measure_queue(m, CpuSet.single(0), label="core#0", reps=30)
    assert row.mean_ns > 0
    assert row.min_ns <= row.mean_ns <= row.max_ns
    assert row.shares == {0: 1.0}


def test_measure_queue_remote_shares():
    m = borderline()
    row = measure_queue(m, CpuSet.single(4), reps=30)
    assert row.shares == {4: 1.0}


def test_run_task_microbench_rows_complete():
    m = smp(2, 2, name="mini")
    res = run_task_microbench(m, reps=25)
    assert len(res.per_core) == 4
    assert res.global_row is not None
    assert res.reference_ns() == res.per_core[0].mean_ns
    labels = {r.label for r in res.all_rows()}
    assert "global" in labels and "chip#1" in labels
    with pytest.raises(KeyError):
        res.row_by_label("nope")


def test_paper_targets_exclude_anomalies():
    t = targets_for("borderline")
    assert "core#7" not in t and "core#6" in t
    t_all = targets_for("kwak", include_anomalies=True)
    assert t_all["cache#3"] == 5216
    assert set(ANOMALIES) == set(PAPER_TABLES)


def test_format_microbench_with_targets():
    m = smp(2, 2)
    res = run_task_microbench(m, reps=20)
    text = format_microbench(res, paper={"core#0": 700})
    assert "core#0" in text and "ratio" in text
    assert "execution shares" in text or res.global_row.shares == {}


def test_format_microbench_zero_paper_target_not_missing():
    """A legitimate 0 ns paper target renders as 0, not as '-'."""
    m = smp(2, 2)
    res = run_task_microbench(m, reps=20)
    text = format_microbench(res, paper={"core#0": 0})
    row = next(l for l in text.splitlines() if l.startswith("core#0"))
    assert f"{0:>10}" in row  # the target column shows the 0
    assert row.rstrip().endswith("-")  # no ratio (division by zero)


def test_format_latency_ragged_thread_counts():
    """Series measured over different thread grids must not crash."""
    from repro.bench.latency import LatencyPoint, LatencySeries

    full = LatencySeries(
        impl="PIOMan",
        points=[
            LatencyPoint(1, 10_000, 9_000, 11_000),
            LatencyPoint(2, 12_000, 11_000, 13_000),
            LatencyPoint(4, 15_000, 14_000, 16_000),
        ],
    )
    short = LatencySeries(
        impl="Baseline",
        points=[LatencyPoint(2, 40_000, 30_000, 50_000)],
    )
    text = format_latency([full, short], tails=True)
    lines = text.splitlines()
    # union of thread counts, one row each; missing cells show "-"
    assert [l.split()[0] for l in lines[2:]] == ["1", "2", "4"]
    assert "-" in lines[2] and "-" in lines[4]
    assert "40.00" in lines[3]


def test_latency_once_sane():
    p = run_latency_once(MadMPI, 1, iters_per_thread=2, warmup=1)
    assert 1_000 < p.mean_one_way_ns < 100_000
    assert p.min_ns <= p.mean_one_way_ns <= p.max_ns


def test_format_latency_table():
    p1 = run_latency_once(MadMPI, 1, iters_per_thread=2, warmup=1)
    from repro.bench.latency import LatencySeries

    series = [LatencySeries(impl="PIOMan", points=[p1])]
    text = format_latency(series)
    assert "PIOMan" in text and "threads" in text
    assert format_latency([]) == "(no series)"


def test_compute_grid_spans():
    g32 = compute_grid(32 * 1024, npoints=5)
    g1m = compute_grid(1024 * 1024, npoints=5)
    assert g32[0] == 0 and g32[-1] == 200_000
    assert g1m[-1] == 2_000_000
    assert len(g32) == 5


def test_overlap_once_ratio_bounds():
    p = run_overlap_once(MVAPICHLike, "sender", 32 * 1024, 100_000, reps=1)
    assert 0.0 <= p.ratio <= 1.0
    assert p.total_ns > 0


def test_overlap_zero_compute_gives_zero_ratio():
    p = run_overlap_once(MadMPI, "receiver", 32 * 1024, 0, reps=1)
    assert p.ratio == 0.0


def test_overlap_unknown_placement():
    with pytest.raises(ValueError):
        run_overlap_once(MadMPI, "sideways", 1024, 0)


def test_format_overlap_output():
    from repro.bench.overlap import OverlapPoint, OverlapSeries

    s = OverlapSeries(
        impl="X", placement="sender", size_bytes=32 * 1024,
        points=[OverlapPoint(0, 0.0, 10), OverlapPoint(1000, 0.5, 2000)],
    )
    text = format_overlap([s])
    assert "32 KB" in text and "sender" in text
    assert format_overlap([]) == "(no series)"


def test_sparkline():
    line = sparkline([0.0, 0.5, 1.0])
    assert len(line) == 3
    assert line[0] == "▁" and line[-1] == "█"


def test_cli_table_smoke(capsys):
    from repro.bench.cli import main

    rc = main(["table1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "TABLE1" in out and "core#0" in out


def test_cli_json_export(tmp_path, capsys):
    from repro.bench.cli import main
    import json

    out = tmp_path / "r.json"
    rc = main(["table1", "--json", str(out)])
    capsys.readouterr()
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["table1"]["machine"] == "borderline"
    labels = [r["label"] for r in data["table1"]["per_core"]]
    assert labels == [f"core#{i}" for i in range(8)]
    assert data["table1"]["global_row"]["mean_ns"] > 0


def test_cli_prints_the_blocks_of_experiments_md(capsys):
    """The CLI runs EXPERIMENTS.md's own job specs, so an artifact prints
    the file's fenced block for it byte for byte."""
    from repro.bench.cli import main

    # in file order: Tables I and II, Figs. 4-7, scalability, bandwidth
    with open(os.path.join(ROOT, "EXPERIMENTS.md")) as fh:
        blocks = re.findall(r"```\n(.*?)\n```", fh.read(), re.S)
    headers = {
        "table1": "TABLE1 (borderline)",
        "table2": "TABLE2 (kwak)",
        "scalability": "SCALABILITY (extension: global queue vs core count)",
    }
    assert main(list(headers)) == 0
    assert capsys.readouterr().out == "".join(
        f"\n=== {headers[a]} ===\n{block}\n"
        for a, block in zip(headers, (blocks[0], blocks[1], blocks[6]))
    )


def test_latency_percentiles_and_tails_format():
    from repro.bench.latency import LatencySeries, run_latency_once
    from repro.bench.reporting import format_latency
    from repro.mpi import MadMPI

    p = run_latency_once(MadMPI, 2, iters_per_thread=3, warmup=1)
    assert p.min_ns <= p.p50_ns <= p.p99_ns <= p.max_ns
    text = format_latency([LatencySeries(impl="PIOMan", points=[p])], tails=True)
    assert "PIOMan p99" in text
