"""Preemption machinery: compute interrupts, spin cancellation, hooks."""

from repro.core.manager import PIOMan
from repro.core.progress import piom_wait
from repro.core.task import LTask, TaskOption
from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.sync.spinlock import SpinLock
from repro.threads.instructions import Acquire, Compute, Release, SetFlag, SpinOn
from repro.threads.flag import Flag
from repro.threads.scheduler import Scheduler
from repro.threads.thread import Prio
from repro.topology.builder import borderline
from repro.topology.cpuset import CpuSet


def _world(seed=4):
    m = borderline()
    eng = Engine()
    sched = Scheduler(m, eng, rng=Rng(seed))
    return m, eng, sched


def test_interrupt_compute_mid_slice():
    m, eng, sched = _world()
    stamps = {}

    def hog(ctx):
        yield Compute(800_000)
        stamps["hog_done"] = ctx.now

    def sys_thread(ctx):
        yield Compute(100)
        stamps["sys_ran"] = ctx.now

    sched.spawn(hog, 1)

    def inject():
        t = sched.spawn(sys_thread, 1, name="sys", prio=Prio.SYSTEM)
        sched.interrupt_compute(1)

    eng.schedule(50_000, inject)
    eng.run()
    # the system thread ran mid-compute, not after 800 us
    assert stamps["sys_ran"] < 100_000
    # the hog still accumulated its full compute time
    assert stamps["hog_done"] >= 800_000


def test_interrupt_compute_preserves_cpu_accounting():
    m, eng, sched = _world()

    def hog(ctx):
        yield Compute(300_000)

    t = sched.spawn(hog, 2)

    def sys_body(ctx):
        yield Compute(10)

    def inject():
        sched.spawn(sys_body, 2, name="sys", prio=Prio.SYSTEM)
        sched.interrupt_compute(2)

    eng.schedule(100_000, inject)
    eng.run()
    assert t.cpu_ns == 300_000  # the unused slice part was un-charged


def test_interrupt_compute_noop_when_idle():
    m, eng, sched = _world()
    assert sched.interrupt_compute(0) is False


def test_timer_cancels_lock_spin_for_contender():
    """A thread spinning on a lock is preempted at the timer tick when a
    same-priority thread waits, so the runnable thread is not starved by
    an unbounded busy-wait."""
    m, eng, sched = _world()
    lock = SpinLock(m, eng, home=0, name="L")
    progress = []

    # core 5 holds the lock for 5 ms (host-level, so the hold is in place
    # before any thread runs)
    lock.try_acquire(5)
    eng.schedule(5_000_000, lock.release, 5)

    def spinner(ctx):
        yield Acquire(lock)  # will spin for milliseconds
        progress.append(("spinner", ctx.now))
        yield Release(lock)

    def co_thread(ctx):
        yield Compute(10_000)
        progress.append(("co", ctx.now))

    sched.spawn(spinner, 0, name="spin")
    sched.spawn(co_thread, 0, name="co")
    eng.run()
    names = [n for n, _ in progress]
    assert names == ["co", "spinner"]
    co_time = dict(progress)["co"]
    # the co-thread ran within a couple of quanta, not after 5 ms
    assert co_time < 3 * m.spec.timer_quantum_ns


def test_timer_cancels_flag_spin_for_contender():
    m, eng, sched = _world()
    flag = Flag(m, eng, home=0, name="f")
    progress = []

    def spinner(ctx):
        yield SpinOn(flag)
        progress.append(("spinner", ctx.now))

    def co_thread(ctx):
        yield Compute(10_000)
        progress.append(("co", ctx.now))

    def setter(ctx):
        yield Compute(4_000_000)
        yield SetFlag(flag)

    sched.spawn(spinner, 0, name="spin")
    sched.spawn(co_thread, 0, name="co")
    sched.spawn(setter, 4, name="set")
    eng.run()
    names = [n for n, _ in progress]
    assert names == ["co", "spinner"]


def test_preemptive_task_interrupts_computing_core():
    """End-to-end future-work path: submit_preemptive on a busy single
    allowed core executes within interrupt latency, not after the hog."""
    m, eng, sched = _world()
    pio = PIOMan(m, eng, sched)
    stamps = {}

    def hog(ctx):
        yield Compute(900_000)

    def submitter(ctx):
        yield Compute(5_000)
        task = LTask(None, cpuset=CpuSet([3]), options=TaskOption.PREEMPTIVE)
        yield from pio.submit_preemptive(0, task)
        yield from piom_wait(pio, 0, task, mode="spin")
        stamps["done"] = ctx.now

    sched.spawn(hog, 3)
    sched.spawn(submitter, 0)
    eng.run()
    assert stamps["done"] < 100_000
