"""Fast integration checks of the paper's qualitative results.

These are scaled-down versions of the shapes that ``tools/make_experiments.py``
checks at paper scale on EXPERIMENTS.md's results, so that ``pytest tests/``
alone validates the reproduction's headline claims.  A4 on a per-core queue
runs here at paper scale, because no EXPERIMENTS.md section measures it.
"""

import pytest

from repro.bench.latency import run_latency_once
from repro.bench.overlap import run_overlap_once
from repro.bench.task_microbench import measure_queue, run_task_microbench
from repro.core.variants import LockFreeTaskQueue
from repro.mpi import MadMPI, MVAPICHLike
from repro.topology import CpuSet, borderline, kwak


@pytest.fixture(scope="module")
def kwak_rows():
    return run_task_microbench(kwak(), reps=80, seed=1)


def test_hierarchy_levels_ordered(kwak_rows):
    """per-core local < per-core remote < global (Tables I/II)."""
    res = kwak_rows
    local = res.per_core[0].mean_ns
    remote = res.per_core[8].mean_ns
    glob = res.global_row.mean_ns
    assert local < remote < glob
    assert glob > 8 * local


def test_remote_numa_penalty_about_a_microsecond(kwak_rows):
    res = kwak_rows
    gap = res.per_core[8].mean_ns - res.per_core[1].mean_ns
    assert 500 < gap < 2_500


def test_global_queue_unbalanced_pickup(kwak_rows):
    shares = kwak_rows.global_row.shares
    node_share = {n: 0.0 for n in range(4)}
    for core, share in shares.items():
        node_share[core // 4] += share
    expected = {
        n: len([c for c in range(n * 4, n * 4 + 4) if c != 0]) / 15.0
        for n in range(4)
    }
    assert max(node_share[n] / expected[n] for n in range(4)) > 1.15


def test_per_core_queue_isolation():
    """Tasks for one core never contend with other cores' queues."""
    m = borderline()
    row = measure_queue(m, CpuSet.single(3), reps=60, seed=2)
    assert row.shares == {3: 1.0}


def test_ablation_lockfree_local():
    """A4: on an uncontended per-core queue the CAS queue and the
    spinlock queue are comparable."""
    machine = kwak()
    locked = measure_queue(
        machine, CpuSet.single(0), label="core#0", reps=300, seed=13
    )
    lockfree = measure_queue(
        machine,
        CpuSet.single(0),
        label="core#0-lockfree",
        reps=300,
        seed=13,
        queue_factory=LockFreeTaskQueue,
    )
    assert abs(locked.mean_ns - lockfree.mean_ns) < 0.3 * locked.mean_ns


def test_latency_flat_for_pioman_growing_for_baseline():
    p1 = run_latency_once(MadMPI, 1, iters_per_thread=2, warmup=1)
    p16 = run_latency_once(MadMPI, 16, iters_per_thread=2, warmup=1)
    m1 = run_latency_once(MVAPICHLike, 1, iters_per_thread=2, warmup=1)
    m16 = run_latency_once(MVAPICHLike, 16, iters_per_thread=2, warmup=1)
    assert p16.mean_one_way_ns < 1.5 * p1.mean_one_way_ns
    assert m16.mean_one_way_ns > 2 * m1.mean_one_way_ns


def test_receiver_overlap_separates_implementations():
    comp = 60_000  # ~2x the 32KB wire time
    pioman = run_overlap_once(MadMPI, "receiver", 32 * 1024, comp, reps=2)
    base = run_overlap_once(MVAPICHLike, "receiver", 32 * 1024, comp, reps=2)
    assert pioman.ratio > base.ratio + 0.15
    assert pioman.ratio > 0.85


def test_sender_overlap_works_for_everyone():
    comp = 60_000
    pioman = run_overlap_once(MadMPI, "sender", 32 * 1024, comp, reps=2)
    base = run_overlap_once(MVAPICHLike, "sender", 32 * 1024, comp, reps=2)
    assert pioman.ratio > 0.85 and base.ratio > 0.85
