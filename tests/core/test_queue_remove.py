"""TaskQueue.remove: the public cancellation/teardown path (all variants)."""

import pytest

from repro.core.queues import AlwaysLockTaskQueue, TaskQueue
from repro.core.task import LTask
from repro.core.variants import LockFreeTaskQueue, MutexTaskQueue
from repro.sim.engine import Engine
from repro.topology.builder import borderline
from repro.topology.cpuset import CpuSet

ALL_VARIANTS = [TaskQueue, MutexTaskQueue, LockFreeTaskQueue, AlwaysLockTaskQueue]


def _queue(factory):
    machine = borderline()
    eng = Engine()
    return factory(machine, eng, machine.root), eng, machine


def _task(machine, name="t"):
    return LTask(None, cpuset=machine.all_cores(), name=name)


@pytest.mark.parametrize("factory", ALL_VARIANTS)
def test_remove_queued_task(factory):
    q, eng, m = _queue(factory)
    a, b = _task(m, "a"), _task(m, "b")
    q.enqueue_nowait(0, a)
    q.enqueue_nowait(0, b)
    assert q.remove(a) is True
    assert len(q) == 1
    assert q.stats.removes == 1
    assert q.drain() == [b]


@pytest.mark.parametrize("factory", ALL_VARIANTS)
def test_remove_missing_task_returns_false(factory):
    q, eng, m = _queue(factory)
    stray = _task(m, "stray")
    assert q.remove(stray) is False
    assert q.stats.removes == 0


def test_remove_last_task_notes_emptiness_transition():
    """Draining the queue by removal must flip visible emptiness with the
    same stale-window semantics as a dequeue."""
    q, eng, m = _queue(TaskQueue)
    t = _task(m)
    q.enqueue_nowait(q.home, t)
    far = m.ncores - 1
    assert q.probe(q.home)[0]
    assert q.remove(t) is True
    # the home core (the attributed writer) sees the drain immediately...
    assert not q.probe(q.home)[0]
    # ...while a distant core still reads its stale non-empty copy until
    # the invalidation propagates
    assert q.probe(far)[0]
    eng.post(m.inval(q.home, far), lambda: None)
    eng.run()
    assert not q.probe(far)[0]


def test_remove_nonlast_task_keeps_visibility():
    q, eng, m = _queue(TaskQueue)
    a, b = _task(m, "a"), _task(m, "b")
    q.enqueue_nowait(q.home, a)
    q.enqueue_nowait(q.home, b)
    before = q._trans_time
    assert q.remove(a) is True
    assert q._trans_time == before  # no transition: still non-empty
    assert q.probe(q.home)[0]
