"""Error paths and boundary arguments in the bench harnesses."""

import pytest

from repro.bench.latency import LatencySeries
from repro.bench.overlap import OverlapSeries, run_overlap_once
from repro.bench.task_microbench import measure_queue
from repro.mpi import MadMPI
from repro.topology import CpuSet, borderline


def test_latency_series_unknown_count():
    s = LatencySeries(impl="X")
    with pytest.raises(KeyError):
        s.latency_at(5)


def test_overlap_series_unknown_compute():
    s = OverlapSeries(impl="X", placement="sender", size_bytes=1024)
    with pytest.raises(KeyError):
        s.ratio_at(123)


def test_overlap_bad_placement_rejected():
    with pytest.raises(ValueError):
        run_overlap_once(MadMPI, "diagonal", 1024, 0)


def test_measure_queue_explicit_wait_mode():
    m = borderline()
    row = measure_queue(
        m, CpuSet.single(0), reps=20, wait_mode="block", label="block-mode"
    )
    assert row.mean_ns > 0 and row.shares == {0: 1.0}


def test_measure_queue_warmup_fraction_applied():
    m = borderline()
    full = measure_queue(m, CpuSet.single(2), reps=30, warmup_frac=0.0)
    trimmed = measure_queue(m, CpuSet.single(2), reps=30, warmup_frac=0.5)
    # both sane; trimming only drops early samples
    assert full.mean_ns > 0 and trimmed.mean_ns > 0


def test_cli_rejects_unknown_target(capsys):
    from repro.bench.cli import main

    with pytest.raises(SystemExit):
        main(["fig99"])


@pytest.mark.parametrize("argv", [
    ["table1", "--json", "{bad}"],
    ["table1", "--metrics-out", "{bad}"],
    ["table1", "--trace-out", "{bad}"],
    ["analyze", "--trace", "t.json", "--analysis-out", "{bad}"],
    ["analyze", "--trace", "t.json", "--critpath-out", "{bad}"],
    ["diff", "a.json", "b.json", "--json-out", "{bad}"],
    ["render", "--trace", "t.json", "--gantt-out", "{bad}"],
    ["perf", "--out", "{bad}"],
    ["cluster-scale", "--out", "{bad}"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_output_path_in_missing_directory_fails_before_running(argv, tmp_path, capsys):
    """Every output flag checks its directory at parse time: exit 2 with
    one error line naming the flag, and nothing simulated or written."""
    from repro.bench.cli import main as bench_main

    bad = str(tmp_path / "missing" / "x.json")
    flag = argv[-2]
    with pytest.raises(SystemExit) as exc:
        bench_main([bad if a == "{bad}" else a for a in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: directory {tmp_path / 'missing'} does not exist" in (
        err.splitlines()[-1]
    )


@pytest.mark.parametrize("argv", [
    ["table1", "--jobs", "-1"],
    ["perf", "--jobs", "x"],
    ["cluster-scale", "--requests", "0"],
    ["cluster-scale", "--shards", "0"],
    ["cluster-scale", "--shards", "x"],
    ["cluster-scale", "--nodes", "1"],
    ["analyze", "--trace", "t.json", "--top", "0"],
    ["analyze", "--trace", "t.json", "--cores", "0"],
    ["diff", "a.json", "b.json", "--top", "-1"],
    ["render", "--trace", "t.json", "--width", "0"],
    ["render", "--trace", "t.json", "--term-width", "0"],
    # timeouts: positive finite seconds (the other flags keep a parent
    # that accepted the value quick and free of written files)
    *[
        [*pre, flag, bad]
        for pre, flag in [
            (["table1"], "--job-timeout"),
            (["perf", "--check", "BENCH_host_perf.json"], "--job-timeout"),
            (["cluster-scale", "--nodes", "2", "--requests", "1", "--shards", "1",
              "--out", "-"], "--timeout"),
        ]
        for bad in ["nan", "inf", "0", "-1"]
    ],
], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_bad_count_fails_before_running(argv, capsys):
    """Every count and timeout flag checks its value at parse time: exit
    2 with one error line naming the flag, and nothing simulated."""
    from repro.bench.cli import main as bench_main

    with pytest.raises(SystemExit) as exc:
        bench_main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {argv[-2]}: " in err.splitlines()[-1]


def test_output_path_that_is_a_directory_is_rejected(tmp_path, capsys):
    from repro.bench.cli import main as bench_main

    with pytest.raises(SystemExit) as exc:
        bench_main(["perf", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument --out: {tmp_path} is a directory" in capsys.readouterr().err
