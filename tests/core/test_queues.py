"""TaskQueue: Algorithm 2 behaviour, stale visibility, eligibility."""

import pytest

from repro.core.queues import AlwaysLockTaskQueue, TaskQueue
from repro.core.task import LTask, TaskState
from repro.core.variants import LockFreeTaskQueue, MutexTaskQueue
from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.sim.trace import Tracer
from repro.threads.instructions import Compute
from repro.threads.scheduler import Scheduler
from repro.topology.builder import borderline, kwak
from repro.topology.cpuset import CpuSet


def _run(machine, body, core=0, seed=1):
    eng = Engine()
    sched = Scheduler(machine, eng, rng=Rng(seed))
    t = sched.spawn(body, core, name="qtest")
    eng.run()
    assert not t.alive
    return t.result, eng


def _queue(machine, factory=TaskQueue):
    eng = Engine()
    q = factory(machine, eng, machine.root)
    return q, eng


def _mktask(cores, name="t"):
    return LTask(None, cpuset=CpuSet(cores), name=name)


def _sched_queue(machine, factory=TaskQueue, seed=1):
    eng = Engine()
    sched = Scheduler(machine, eng, rng=Rng(seed))
    q = factory(machine, eng, machine.root)
    return q, eng, sched


@pytest.mark.parametrize("factory", [TaskQueue, AlwaysLockTaskQueue, LockFreeTaskQueue, MutexTaskQueue])
def test_enqueue_dequeue_fifo(factory):
    machine = borderline()
    q, eng, sched = _sched_queue(machine, factory)
    tasks = [_mktask({0}, f"t{i}") for i in range(4)]

    def body(ctx):
        for t in tasks:
            yield from q.enqueue(0, t)
        got = []
        while True:
            t = yield from q.get_task(0)
            if t is None:
                break
            got.append(t.name)
        return got

    t = sched.spawn(body, 0)
    eng.run()
    assert t.result == ["t0", "t1", "t2", "t3"]
    assert len(q) == 0


def test_enqueue_sets_state_and_stats():
    machine = borderline()
    q, eng, sched = _sched_queue(machine)
    task = _mktask({0})

    def body(ctx):
        yield from q.enqueue(0, task)

    sched.spawn(body, 0)
    eng.run()
    assert task.state is TaskState.QUEUED
    assert q.stats.enqueues == 1 and q.stats.max_len == 1
    assert q.drain() == [task]


def test_empty_peek_takes_no_lock():
    machine = borderline()
    q, eng, sched = _sched_queue(machine)

    def body(ctx):
        res = yield from q.get_task(3)
        return res

    t = sched.spawn(body, 3)
    eng.run()
    assert t.result is None
    assert q.stats.lock_sections == 0, "Algorithm 2: empty queues are never locked"
    assert q.stats.empty_checks == 1


def test_always_lock_variant_locks_when_empty():
    machine = borderline()
    q, eng, sched = _sched_queue(machine, AlwaysLockTaskQueue)

    def body(ctx):
        res = yield from q.get_task(3)
        return res

    sched.spawn(body, 3)
    eng.run()
    assert q.stats.lock_sections == 1


def test_stale_visibility_window():
    """A remote core reading within the invalidation window sees the old
    emptiness value; the writer itself always sees the truth."""
    machine = kwak()
    eng = Engine()
    q = TaskQueue(machine, eng, machine.root)
    # enqueue transition at t=0 by core 0 (host-level manipulation)
    q._note_transition(0, prev_nonempty=False)
    q._tasks.append(_mktask({0}))
    assert q.probe(0)[0] is True  # the writer
    assert q.probe(15)[0] is False  # stale: inval not arrived
    # after the invalidation window the truth is visible everywhere
    eng.schedule(machine.inval(0, 15) + 1, lambda: None)
    eng.run()
    assert q.probe(15)[0] is True


def test_stale_nonempty_leads_to_lost_race():
    """Core that saw a stale non-empty value locks, re-checks, finds
    nothing — Algorithm 2's under-lock re-check keeps it correct."""
    machine = kwak()
    q, eng, sched = _sched_queue(machine)

    # a long-settled non-empty queue (no recent transition)
    q._tasks.append(_mktask({0}))

    def drainer(ctx):
        got = yield from q.get_task(0)
        assert got is not None
        # now empty; the empty-transition is noted by core 0

    def racer(ctx):
        from repro.threads.instructions import Compute

        # land the probe just after the dequeue, inside its stale window
        yield Compute(80)
        res = yield from q.get_task(12)
        return res

    t1 = sched.spawn(drainer, 0)
    t2 = sched.spawn(racer, 12)
    eng.run()
    assert t2.result is None
    assert q.stats.lost_races >= 1


def test_eligibility_respected_at_dequeue():
    machine = borderline()
    q, eng, sched = _sched_queue(machine)
    pinned = _mktask({5}, "pinned")
    anyone = _mktask(set(range(8)), "anyone")

    def body(ctx):
        yield from q.enqueue(0, pinned)
        yield from q.enqueue(0, anyone)
        got = yield from q.get_task(0)  # core 0 may not run 'pinned'
        return got

    t = sched.spawn(body, 0)
    eng.run()
    assert t.result.name == "anyone"
    assert len(q) == 1 and q._tasks[0].name == "pinned"


def test_eligible_none_when_only_foreign_tasks():
    machine = borderline()
    q, eng, sched = _sched_queue(machine)
    pinned = _mktask({5}, "pinned")

    def body(ctx):
        yield from q.enqueue(0, pinned)
        got = yield from q.get_task(0)
        return got

    t = sched.spawn(body, 0)
    eng.run()
    assert t.result is None
    assert len(q) == 1


def test_drain_clears():
    machine = borderline()
    eng = Engine()
    q = TaskQueue(machine, eng, machine.root)
    q._tasks.extend([_mktask({0}), _mktask({1})])
    out = q.drain()
    assert len(out) == 2 and len(q) == 0


def test_dequeued_by_counts():
    machine = borderline()
    q, eng, sched = _sched_queue(machine)

    def body(core):
        def gen(ctx):
            yield from q.enqueue(core, _mktask({core}))
            got = yield from q.get_task(core)
            assert got is not None

        return gen

    t1 = sched.spawn(body(0), 0)
    eng.run()
    t2 = sched.spawn(body(3), 3)
    eng.run()
    assert q.stats.dequeued_by == {0: 1, 3: 1}


@pytest.mark.parametrize("factory", [TaskQueue, AlwaysLockTaskQueue, LockFreeTaskQueue, MutexTaskQueue])
def test_round_trip_stamps_the_task_and_records_its_wait(factory):
    """Every variant stamps the enqueue and the first poll, records the
    queue wait of each dequeue and traces the submit -> enqueue edge."""
    machine = kwak()
    q, eng, sched = _sched_queue(machine, factory)
    q.tracer = Tracer(enabled=True)
    task = _mktask({0})
    task.submit_time = 0

    def body(ctx):
        yield from q.enqueue(0, task)
        yield Compute(500)
        return (yield from q.get_task(0))

    t = sched.spawn(body, 0)
    eng.run()
    assert t.result is task
    assert q.stats.dequeues == 1 and q.stats.wait_ns.count == q.stats.dequeues
    assert task.enqueued_at is not None and task.first_polled_at is not None
    assert task.first_polled_at - task.enqueued_at >= 500
    assert [r.message for r in q.tracer.select("edge")] == ["edge:submit T:t/sub -> T:t/enq"]


def test_lockfree_rmw_penalty_under_bursts():
    """Two cores hitting the CAS queue within the retry window pay more
    than a lone core."""
    machine = kwak()
    q, eng, sched = _sched_queue(machine, LockFreeTaskQueue)
    durations = {}

    def solo(ctx):
        t0 = ctx.now
        yield from q.enqueue(0, _mktask({0}, "a"))
        durations["solo"] = ctx.now - t0

    sched.spawn(solo, 0)
    eng.run()

    def racer(core, name):
        def gen(ctx):
            t0 = ctx.now
            yield from q.enqueue(core, _mktask({core}, name))
            durations[name] = ctx.now - t0

        return gen

    sched.spawn(racer(4, "r1"), 4)
    sched.spawn(racer(8, "r2"), 8)
    eng.run()
    assert max(durations["r1"], durations["r2"]) > durations["solo"]
