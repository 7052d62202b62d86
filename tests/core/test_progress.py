"""piom_wait disciplines: the WAIT keypoint, mode differences."""

from repro.core.manager import PIOMan
from repro.core.progress import piom_wait
from repro.core.task import LTask
from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.threads.instructions import Compute
from repro.threads.scheduler import Keypoint, Scheduler
from repro.topology.builder import borderline
from repro.topology.cpuset import CpuSet


def _world(seed=3):
    m = borderline()
    eng = Engine()
    sched = Scheduler(m, eng, rng=Rng(seed))
    pio = PIOMan(m, eng, sched)
    return m, eng, sched, pio


def test_active_wait_counts_wait_keypoint():
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=CpuSet.single(0))

    def body(ctx):
        yield from pio.submit(0, task)
        yield from piom_wait(pio, 0, task, mode="active")

    sched.spawn(body, 0)
    eng.run()
    assert sched.keypoint_count(Keypoint.WAIT) == 1


def test_active_wait_executes_local_tasks_itself():
    """The waiting thread drives progression (core #0 both creates and
    executes, paper §V-A)."""
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=CpuSet.single(0), name="self")

    def body(ctx):
        yield from pio.submit(0, task)
        yield from piom_wait(pio, 0, task, mode="active")

    sched.spawn(body, 0)
    eng.run()
    assert (task.executions, task.current_core) == (1, 0)
    assert pio.stats.executions_by_core == {0: 1}


def test_block_wait_frees_core_for_tasks():
    """In block mode the waiting core's idle loop runs the task."""
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=CpuSet.single(0), name="idle-run")

    def body(ctx):
        yield from pio.submit(0, task)
        yield from piom_wait(pio, 0, task, mode="block")
        return ctx.now

    t = sched.spawn(body, 0)
    eng.run()
    assert task.done
    assert t.result is not None


def test_spin_wait_observes_remote_completion():
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=CpuSet.single(7), name="far")
    times = {}

    def body(ctx):
        yield from pio.submit(0, task)
        yield from piom_wait(pio, 0, task, mode="spin")
        times["noticed"] = ctx.now

    sched.spawn(body, 0)
    eng.run()
    assert task.done
    assert times["noticed"] >= task.complete_time


def test_wait_on_completed_task_is_fast():
    m, eng, sched, pio = _world()
    task = LTask(None, cpuset=CpuSet.single(0))
    times = {}

    def body(ctx):
        yield from pio.submit(0, task)
        yield from piom_wait(pio, 0, task, mode="active")
        t0 = ctx.now
        # waiting again returns immediately
        yield from piom_wait(pio, 0, task, mode="block")
        yield from piom_wait(pio, 0, task, mode="spin")
        yield from piom_wait(pio, 0, task, mode="active")
        times["extra"] = ctx.now - t0

    sched.spawn(body, 0)
    eng.run()
    assert times["extra"] < 1_000


def test_active_wait_helps_with_other_tasks_meanwhile():
    """While waiting for a remote task, the active waiter still drains
    its own local queue."""
    m, eng, sched, pio = _world()
    remote = LTask(None, cpuset=CpuSet.single(6), name="remote", cost_ns=3_000)
    local = LTask(None, cpuset=CpuSet.single(0), name="local")

    def body(ctx):
        yield from pio.submit(0, remote)
        yield from pio.submit(0, local)
        yield from piom_wait(pio, 0, remote, mode="active")

    sched.spawn(body, 0)
    eng.run()
    assert local.done and (local.executions, local.current_core) == (1, 0)
    assert remote.done and (remote.executions, remote.current_core) == (1, 6)
    assert pio.stats.executions_by_core == {0: 1, 6: 1}
