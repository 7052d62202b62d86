"""PIOMan manager: submission, Algorithm 1, repeat tasks, offload helpers."""

import pytest

from repro.core.manager import PIOMan
from repro.core.progress import piom_wait, wait_all
from repro.core.task import LTask, TaskOption, TaskState
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.threads.instructions import Compute
from repro.threads.scheduler import Scheduler
from repro.topology.builder import borderline, kwak
from repro.topology.cpuset import CpuSet


def _world(machine_factory=borderline, seed=3, **kw):
    m = machine_factory()
    eng = Engine()
    sched = Scheduler(m, eng, rng=Rng(seed))
    pio = PIOMan(m, eng, sched, **kw)
    return m, eng, sched, pio


def test_manager_attaches_as_progression_hook():
    m, eng, sched, pio = _world()
    assert sched.progression_hook == pio.schedule_once


def test_submit_and_local_execution():
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=CpuSet.single(0), name="local")

    def body(ctx):
        yield from pio.submit(0, task)
        yield from piom_wait(pio, 0, task, mode="active")
        return ctx.now

    t = sched.spawn(body, 0)
    eng.run()
    assert task.done and (task.executions, task.current_core) == (1, 0)
    assert pio.stats.executions_by_core == {0: 1}
    assert pio.stats.submits == 1 and pio.stats.tasks_completed == 1
    assert task.complete_time is not None
    assert t.result > 0


def test_submit_remote_core_executes_there():
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=CpuSet.single(6), name="remote")

    def body(ctx):
        yield from pio.submit(0, task)
        yield from piom_wait(pio, 0, task, mode="spin")

    sched.spawn(body, 0)
    eng.run()
    assert task.done and (task.executions, task.current_core) == (1, 6)
    assert pio.stats.executions_by_core == {6: 1}


def test_a_reused_task_records_every_submissions_queue_wait():
    """``reset()`` starts the execution count over, so the second
    submission of one task closes its own queue-wait span."""
    m, eng, sched, pio = _world(kwak, registry=MetricsRegistry())
    task = LTask(None, cpuset=CpuSet.single(5), name="reused")

    def body(ctx):
        for _ in range(2):
            yield from pio.submit(0, task)
            yield from piom_wait(pio, 0, task, mode="spin")
            assert (task.executions, task.current_core) == (1, 5)
            task.reset()

    sched.spawn(body, 0)
    eng.run()
    snap = pio.registry.snapshot()
    assert pio.stats.submits == pio.stats.executions == 2
    assert snap["pioman.latency.submit_to_complete.count"] == 2
    assert snap["pioman.latency.queue_wait.count"] == 2


def test_double_submit_raises():
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=CpuSet.single(0))

    def body(ctx):
        yield from pio.submit(0, task)
        yield from pio.submit(0, task)

    sched.spawn(body, 0)
    with pytest.raises(RuntimeError):
        eng.run()


def test_task_function_runs_with_arg():
    m, eng, sched, pio = _world()
    seen = []
    task = LTask(lambda t: seen.append(t.arg), arg=17, cpuset=CpuSet.single(2))

    def body(ctx):
        yield from pio.submit(0, task)
        yield from piom_wait(pio, 0, task, mode="spin")

    sched.spawn(body, 0)
    eng.run()
    assert seen == [17]


def test_repeat_task_reenqueued_until_success():
    m, eng, sched, pio = _world()
    polls = []

    def poll(task):
        polls.append(1)
        return len(polls) >= 4

    task = LTask(poll, cpuset=CpuSet.single(3), options=TaskOption.REPEAT)

    def body(ctx):
        yield from pio.submit(0, task)
        yield from piom_wait(pio, 0, task, mode="spin")

    sched.spawn(body, 0)
    eng.run()
    assert len(polls) == 4
    assert pio.stats.repeat_requeues == 3
    assert task.done


def test_wait_all():
    m, eng, sched, pio = _world()
    tasks = [LTask(None, cpuset=CpuSet.single(c)) for c in (1, 2, 3)]

    def body(ctx):
        for t in tasks:
            yield from pio.submit(0, t)
        yield from wait_all(pio, 0, tasks, mode="spin")

    sched.spawn(body, 0)
    eng.run()
    assert all(t.done for t in tasks)


def test_wait_unsubmitted_task_raises():
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=CpuSet.single(0))

    def body(ctx):
        yield from piom_wait(pio, 0, task)

    sched.spawn(body, 0)
    with pytest.raises(RuntimeError):
        eng.run()


def test_wait_modes_block_and_spin():
    for mode in ("block", "spin", "active"):
        m, eng, sched, pio = _world()
        task = LTask(None, cpuset=CpuSet.single(4))

        def body(ctx, mode=mode):
            yield from pio.submit(0, task)
            yield from piom_wait(pio, 0, task, mode=mode)
            return ctx.now

        t = sched.spawn(body, 0)
        eng.run()
        assert task.done, mode
        assert not t.alive


def test_wait_unknown_mode():
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=CpuSet.single(0))

    def body(ctx):
        yield from pio.submit(0, task)
        yield from piom_wait(pio, 0, task, mode="wat")

    sched.spawn(body, 0)
    with pytest.raises(ValueError):
        eng.run()


def test_schedule_once_scans_up_the_hierarchy():
    """A task in the global queue is found by a core's local pass."""
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=m.all_cores(), name="global")

    def body(ctx):
        yield from pio.submit(0, task)
        ran, repeats, contended = yield from pio.schedule_once(0)
        return ran

    t = sched.spawn(body, 0)
    eng.run(until=1_000_000)
    # either core 0's own pass ran it or a rung idle core beat it to it
    assert task.done


def test_cancel_removes_queued_task():
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=CpuSet.single(5), name="doomed")

    def body(ctx):
        yield from pio.submit(0, task)
        # cancel before core 5 wakes (host-instant)
        assert pio.cancel(task) is True
        yield Compute(10)

    sched.spawn(body, 0)
    eng.run(until=1_000_000)
    assert task.state is TaskState.CANCELLED
    assert pio.cancel(task) is False


def test_find_idle_core_prefers_near():
    m, eng, sched, pio = _world(kwak)
    busy = []

    def hog(ctx):
        yield Compute(100_000)
        busy.append(1)

    def prober(ctx):
        yield Compute(1_000)
        # cores 1..3 near, all idle; core 0 busy (this thread)
        target = pio.find_idle_core(0, m.all_cores())
        return target

    sched.spawn(hog, 1)  # make core 1 busy
    t = sched.spawn(prober, 0)
    eng.run()
    assert t.result in (2, 3)  # nearest idle (same L3), not busy core 1


def test_find_idle_core_none_when_all_busy():
    m, eng, sched, pio = _world(machine_factory=lambda: borderline())
    results = {}

    def hog(ctx):
        yield Compute(50_000)

    def prober(ctx):
        yield Compute(1_000)
        results["t"] = pio.find_idle_core(0, CpuSet([1]))

    sched.spawn(hog, 1)
    sched.spawn(prober, 0)
    eng.run()
    assert results["t"] is None


def test_preemptive_submit_targets_idle_core():
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=m.all_cores(), options=TaskOption.PREEMPTIVE)

    def body(ctx):
        yield from pio.submit_preemptive(0, task)
        yield from piom_wait(pio, 0, task, mode="spin")

    sched.spawn(body, 0)
    eng.run()
    assert task.done
    assert len(task.cpuset) == 1  # narrowed to one target core


def test_preemptive_submit_kicks_busy_core():
    """With every allowed core busy, the task still runs promptly via an
    injected keypoint rather than waiting for the hog to finish."""
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=CpuSet([1]), options=TaskOption.PREEMPTIVE)
    t_complete = {}

    def hog(ctx):
        yield Compute(800_000)

    def submitter(ctx):
        yield Compute(1_000)
        yield from pio.submit_preemptive(0, task)
        yield from piom_wait(pio, 0, task, mode="spin")
        t_complete["t"] = ctx.now

    sched.spawn(hog, 1)
    sched.spawn(submitter, 0)
    eng.run()
    assert task.done
    assert t_complete["t"] < 800_000, "preemptive task must not wait for the hog"


def test_execution_shares_sum_to_one():
    m, eng, sched, pio = _world()
    tasks = [LTask(None, cpuset=CpuSet.single(i % 4)) for i in range(8)]

    def body(ctx):
        for t in tasks:
            yield from pio.submit(0, t)
        yield from wait_all(pio, 0, tasks, mode="spin")

    sched.spawn(body, 0)
    eng.run()
    shares = pio.execution_shares()
    assert abs(sum(shares.values()) - 1.0) < 1e-9


def test_flat_manager_works():
    m, eng, sched, pio = _world(hierarchical=False)
    task = LTask(None, cpuset=CpuSet.single(2))

    def body(ctx):
        yield from pio.submit(0, task)
        yield from piom_wait(pio, 0, task, mode="spin")

    sched.spawn(body, 0)
    eng.run()
    assert task.done and (task.executions, task.current_core) == (1, 2)
    assert pio.stats.executions_by_core == {2: 1}


def test_submit_nowait_from_host_context():
    """Tasks spawning tasks: host-instant submission still routes, rings
    and completes like a normal submission."""
    m, eng, sched, pio = _world()
    chained = []

    def parent_fn(task):
        child = LTask(
            lambda t: chained.append(t.current_core),
            cpuset=CpuSet.single(5),
            name="child",
        )
        pio.submit_nowait(task.current_core, child)
        return True

    parent = LTask(parent_fn, cpuset=CpuSet.single(3), name="parent")

    def body(ctx):
        yield from pio.submit(0, parent)
        yield from piom_wait(pio, 0, parent, mode="spin")
        # wait for the chained task too (flag was bound by submit_nowait)
        from repro.threads.instructions import SpinOn

        while not chained:
            yield SpinOn(parent.completion)  # parent done; spin briefly
            yield Compute(500)

    sched.spawn(body, 0)
    eng.run(until=10_000_000)
    assert chained == [5]
    assert pio.stats.submits == 2


def test_submit_nowait_rejects_resubmission():
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=CpuSet.single(1))
    pio.submit_nowait(0, task)
    with pytest.raises(RuntimeError):
        pio.submit_nowait(0, task)
