"""Diagnostic dumps: generator stacks, blocked threads, protocol state."""

from repro.cluster.cluster import Cluster
from repro.mpi import MadMPI
from repro.sim.debug import dump_state, gen_stack, scheduler_state, thread_line
from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.threads.flag import Flag
from repro.threads.instructions import BlockOn, Compute
from repro.threads.scheduler import Scheduler
from repro.topology.builder import borderline


def test_gen_stack_shows_nesting():
    m = borderline()
    eng = Engine()
    sched = Scheduler(m, eng, rng=Rng(1))

    def inner(ctx):
        yield Compute(10_000_000)

    def body(ctx):
        yield from inner(ctx)

    t = sched.spawn(body, 0, name="nested")
    eng.run(until=1_000)
    stack = gen_stack(t)
    assert "body:" in stack and "inner:" in stack


def test_gen_stack_finished_thread():
    m = borderline()
    eng = Engine()
    sched = Scheduler(m, eng, rng=Rng(1))

    def body(ctx):
        yield Compute(10)

    t = sched.spawn(body, 0)
    eng.run()
    assert gen_stack(t) == "(finished)"


def test_scheduler_state_lists_blocked_with_reason():
    m = borderline()
    eng = Engine()
    sched = Scheduler(m, eng, rng=Rng(1))
    flag = Flag(m, eng, home=0, name="never")

    def stuck(ctx):
        yield BlockOn(flag)

    def busy(ctx):
        yield Compute(5_000_000)

    sched.spawn(stuck, 2, name="stuck")
    sched.spawn(busy, 0, name="busy")
    eng.run(until=100_000)
    text = scheduler_state(sched)
    assert "stuck" in text and "flag:never" in text
    assert "busy" in text
    assert "core 0" in text


def test_dump_state_on_cluster_includes_nmad():
    cl = Cluster(2, seed=3)
    mpi = MadMPI(cl)
    c0 = mpi.comm(0)

    def lonely_sender(ctx):
        # rendezvous with no matching recv: stalls by design
        req = yield from c0.isend(ctx.core_id, 1, 5, 256 * 1024, payload=b"x")
        yield from c0.wait(ctx.core_id, req)

    cl.nodes[0].scheduler.spawn(lonely_sender, 0, name="lonely")
    cl.run(until=5_000_000)
    text = dump_state(cl)
    assert "node 'node0'" in text
    assert "pending_ops=1" in text
    assert "rendezvous out" in text  # the un-answered RTS is visible
    assert "lonely" in text


def test_dump_state_on_plain_scheduler():
    m = borderline()
    eng = Engine()
    sched = Scheduler(m, eng, rng=Rng(1))

    def body(ctx):
        yield Compute(10)

    sched.spawn(body, 0)
    eng.run()
    assert "node 'node0'" in dump_state(sched)


def test_thread_line_spinning_marker():
    from repro.sync.spinlock import SpinLock
    from repro.threads.instructions import Acquire

    m = borderline()
    eng = Engine()
    sched = Scheduler(m, eng, rng=Rng(1))
    lock = SpinLock(m, eng, home=0)
    lock.try_acquire(7)  # host-held

    def spinner(ctx):
        yield Acquire(lock)

    t = sched.spawn(spinner, 0, name="spin")
    eng.run(until=50_000)
    assert "(spinning)" in thread_line(t)
