"""Unit tests for the extension harnesses (scalability, bandwidth,
affinity bursts) at miniature scale."""

import pytest

from repro.bench.ablations import run_affinity_burst
from repro.bench.bandwidth import BandwidthSeries, format_bandwidth, run_bandwidth_once
from repro.bench.scalability import run_scalability, scaled_machine
from repro.mpi import MadMPI
from repro.topology import smp
from repro.topology.machine import Level


def test_scaled_machine_shapes():
    m = scaled_machine(2, 4)
    assert m.ncores == 8
    assert m.common_level(0, 3) == Level.CACHE
    assert m.common_level(0, 4) == Level.MACHINE
    # calibration constants match kwak
    assert m.spec.xfer_ns[Level.MACHINE] == 155


def test_run_scalability_tiny():
    study = run_scalability(shapes=((2, 2), (2, 4)), reps=30)
    assert [p.ncores for p in study.points] == [4, 8]
    text = study.format()
    assert "blowup" in text and " 4" in text
    for p in study.points:
        assert p.global_ns > p.local_ns > 0
        assert p.global_blowup > 1


def test_affinity_burst_returns_stats():
    res = run_affinity_burst(smp(2, 2, name="t"), bursts=10)
    assert res.mean_burst_ns > 0
    assert res.lock_sections > 0
    assert set(res.executions_by_core) <= {0, 1, 2, 3}
    # tasks were pinned to cores 1..3 only
    assert 0 not in res.executions_by_core


def test_affinity_burst_flat_label():
    res = run_affinity_burst(smp(2, 2), hierarchical=False, bursts=5)
    assert res.label == "flat"


def test_bandwidth_single_point():
    p = run_bandwidth_once(MadMPI, 64 * 1024, window=4, iters=2, warmup=1)
    assert 100 < p.mb_per_s < 1600  # below the 1500 MB/s wire, above junk


def test_format_bandwidth():
    s = BandwidthSeries(impl="X")
    from repro.bench.bandwidth import BandwidthPoint

    s.points.append(BandwidthPoint(1024, 500.0))
    s.points.append(BandwidthPoint(1024 * 1024, 1400.0))
    text = format_bandwidth([s])
    assert "1 KB" in text and "1 MB" in text and "500" in text
    assert format_bandwidth([]) == "(no series)"


def test_cli_scalability_smoke(capsys):
    from repro.bench.cli import main

    rc = main(["scalability"])
    out = capsys.readouterr().out
    assert rc == 0 and "SCALABILITY" in out and "blowup" in out
