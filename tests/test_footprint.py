"""What a submitted task and a cluster node keep alive.

A completed task stays referenced for as long as its owner keeps it (a
packet wrapper, a benchmark's task list), together with its completion
flag, which is its own cache line; the line's statistics are one object
shared by every completion flag of the manager, the flag names itself
from the task's own name string, and the task's CPU set is shared by
every task with the same mask.  A cluster world keeps
every node's stack, and each node holds a score of histograms that hold
buckets only for the samples they saw.  These tests pin the shape of
that state and bound its size, so per-task and per-node allocations do
not creep back in.
"""

import gc
import pickle
import tracemalloc

import pytest

from repro.cluster.cluster import ShardSpec
from repro.cluster.workload import WorkloadSpec, build_workload_cluster
from repro.core.manager import PIOMan
from repro.core.progress import piom_wait
from repro.core.task import LTask, TaskOption
from repro.mem.cacheline import CacheLine, MemStats
from repro.obs.histogram import Histogram
from repro.par import derive_seed
from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.threads.flag import Flag
from repro.threads.instructions import BlockOn
from repro.threads.scheduler import Scheduler
from repro.topology.builder import kwak
from repro.topology.cpuset import CpuSet

#: tasks in the measured world
NTASKS = 500
#: bytes retained per completed task.  This world measures 274 B on
#: CPython 3.11, 3.12 and 3.13 and 349 B on 3.10 since a completion flag
#: is its own cache line, names itself from the task's name string, a
#: finished task's pass stamp is 0 and single-core sharer bits are
#: shared ints.  It measured 430 B on 3.11, 422 B on 3.12 and 3.13 and
#: 503 B on 3.10 with a line object under every flag and a formatted
#: ``done:`` name; 502 B on 3.11, 494 B on 3.12 and 3.13 and 582 B on
#: 3.10 with one ``MemStats`` per flag; and 1,044 B (1,193 B on 3.10)
#: when every line held a ``set`` of sharers, every ``MemStats`` a
#: ``__dict__``, every flag two waiter lists and every task a per-core
#: dict.  The bound is under the old 3.11 and 3.12 figures and 15% over
#: the 3.10 one, which CI's 3.10 leg measures.
MAX_BYTES_PER_TASK = 400
#: bytes a freshly built cluster world keeps per node: shard 0 of 2 of
#: a 16-node incast spec shaped like the benchmark's ``cluster_sharded``.
#: It measures 37,434 B on CPython 3.11 since histograms grow their
#: buckets on demand, and measured 48,202 B when every histogram
#: preallocated 68 buckets.  The bound is 25% over the current figure.
MAX_BYTES_PER_NODE = 47_000


def test_sharers_are_an_int_bitmask():
    line = CacheLine(kwak(), home=3)
    assert line.sharers == 1 << 3
    line.read(12)
    assert type(line.sharers) is int and line.sharers == 1 << 3 | 1 << 12


def test_stats_and_flags_carry_no_per_instance_dict_or_list():
    assert not hasattr(MemStats(), "__dict__")
    m, eng = kwak(), Engine()
    flag = Flag(m, eng, home=0)
    assert not hasattr(flag, "__dict__") and not hasattr(flag, "set_time")
    assert flag._spinners is None and flag._blockers is None
    flag.add_spinner(4, lambda: None)
    flag.set(0)
    assert flag._spinners is None


def test_a_completion_flag_is_its_own_cache_line():
    eng, tasks = _world(2)
    eng.run()
    for task in tasks:
        flag = task.completion
        assert isinstance(flag, CacheLine) and not hasattr(flag, "line")
        assert flag.is_set and flag.owner == task.current_core
        assert flag.sharers == 1 << task.current_core


def test_a_finished_task_keeps_no_pass_stamp():
    eng, tasks = _world(3)
    eng.run()
    assert all(t.done and t.polled_stamp == 0 for t in tasks)


def test_sharer_bits_of_one_core_are_shared_ints():
    m = kwak()
    a, b = CacheLine(m, home=0), CacheLine(m, home=0)
    a.write(13)
    b.write_async(13)
    assert a.sharers is b.sharers is m._core_bits[13] == 1 << 13


@pytest.mark.parametrize("make", [
    lambda: CpuSet.single(11),
    lambda: CpuSet.range(4, 8),
    lambda: CpuSet.all(16),
], ids=["single", "range", "all"])
def test_cpuset_constructors_share_one_immutable_instance_per_mask(make):
    cpuset = make()
    assert make() is cpuset
    with pytest.raises(AttributeError):
        cpuset.mask = 0
    with pytest.raises(AttributeError):
        del cpuset.mask
    copy = pickle.loads(pickle.dumps(cpuset))
    assert copy == cpuset and copy.mask == cpuset.mask
    assert make().mask == copy.mask


def test_blocked_waiters_and_errors_name_the_completion_flag():
    m, eng = kwak(), Engine()
    sched = Scheduler(m, eng, rng=Rng(1))
    pio = PIOMan(m, eng, sched)
    # repeat tasks whose function never completes: the waiters stay blocked
    tasks = [LTask(lambda t: False, cpuset=CpuSet.single(5), name=name,
                   options=TaskOption.REPEAT) for name in ("job", "", "")]
    threads = []
    for i, task in enumerate(tasks):
        def body(ctx, task=task):
            yield from pio.submit(ctx.core_id, task)
            yield BlockOn(task.completion)
        threads.append(sched.spawn(body, 1 + i))
    eng.run(until=200_000)
    labels = ["done:job", "done:anon1", "done:anon2"]
    assert [t.blocked_on for t in threads] == [f"flag:{n}" for n in labels]
    flag = tasks[0].completion
    assert flag.name == "job"
    assert repr(flag) == "<Flag done:job clear waiters=1>"
    with pytest.raises(RuntimeError, match="reset of 'done:anon2' with waiters"):
        tasks[2].completion.reset(0)


def test_tasks_keep_no_test_only_fields():
    task = LTask(None, cpuset=CpuSet.single(0))
    assert not hasattr(task, "__dict__")
    for name in ("executed_by", "submit_core", "queue_name"):
        assert not hasattr(task, name)


def test_an_empty_histogram_holds_no_buckets():
    h = Histogram()
    assert h._buckets == []
    h.record(5)
    assert len(h._buckets) == (5).bit_length() + 1


def _world(ntasks):
    """One submitter on core 0 submits and spin-waits, round after
    round, tasks pinned to the other 15 cores."""
    m, eng = kwak(), Engine()
    sched = Scheduler(m, eng, rng=Rng(1))
    pio = PIOMan(m, eng, sched)
    tasks = [LTask(None, cpuset=CpuSet.single(1 + i % 15), name=f"t{i}")
             for i in range(ntasks)]

    def body(ctx):
        for task in tasks:
            yield from pio.submit(ctx.core_id, task)
            yield from piom_wait(pio, ctx.core_id, task, mode="spin")

    sched.spawn(body, 0)
    return eng, tasks


def test_completion_lines_share_one_stats_object():
    eng, tasks = _world(2)
    eng.run()
    a, b = (t.completion for t in tasks)
    assert a is not b and a.stats is b.stats


def test_memory_retained_per_completed_task_is_bounded():
    eng, tasks = _world(NTASKS)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eng.run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(t.done for t in tasks)
    assert all(t.completion._spinners is None for t in tasks)
    assert retained / NTASKS <= MAX_BYTES_PER_TASK, (
        f"{retained / NTASKS:.0f} B retained per completed task")


def _cluster_world():
    spec = WorkloadSpec(
        nnodes=16, requests_per_node=8, pattern="incast", incast_fanin=8,
        arrival="closed", mean_gap_ns=0, think_ns=100_000, size_bytes=1024,
        collective_every=4, seed=derive_seed(7, "cluster_sharded"),
    )
    return build_workload_cluster(ShardSpec(0, 2), spec=spec, machine="smp1x2")


def test_memory_kept_per_cluster_node_is_bounded():
    _cluster_world()  # the first build fills the process's caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cluster = _cluster_world()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nnodes = len(cluster.nodes)
    assert nnodes == 8
    assert kept / nnodes <= MAX_BYTES_PER_NODE, (
        f"{kept / nnodes:.0f} B kept per cluster node")
