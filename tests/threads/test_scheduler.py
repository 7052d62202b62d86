"""Scheduler: dispatch, priorities, quantum slicing, sleep, park/ring,
keypoints, preemption, deadlock reporting."""

import pytest

from repro.sim.engine import DeadlockError, Engine
from repro.sim.rng import Rng
from repro.threads.flag import Flag
from repro.threads.instructions import (
    BlockOn,
    Compute,
    Park,
    SetFlag,
    Sleep,
    SpinOn,
    YieldCPU,
)
from repro.threads.scheduler import Keypoint, Scheduler
from repro.threads.thread import Prio, TState
from repro.topology.builder import borderline

from tests.conftest import run_thread, run_threads


def test_single_thread_compute(machine):
    def body(ctx):
        yield Compute(1_000)
        return ctx.now

    result, eng = run_thread(machine, body)
    assert result == 1_000


def test_spawn_rejects_bad_core(machine, engine):
    sched = Scheduler(machine, engine)
    with pytest.raises(ValueError):
        sched.spawn(lambda ctx: iter(()), 99)


def test_two_threads_one_core_interleave(machine):
    order = []

    def a(ctx):
        yield Compute(100)
        order.append("a")
        yield YieldCPU()
        yield Compute(100)
        order.append("a2")

    def b(ctx):
        yield Compute(100)
        order.append("b")

    run_threads(machine, [(a, 0), (b, 0)])
    assert order == ["a", "b", "a2"]


def test_threads_on_distinct_cores_run_in_parallel(machine):
    stamps = {}

    def make(name):
        def body(ctx):
            yield Compute(10_000)
            stamps[name] = ctx.now

        return body

    run_threads(machine, [(make("x"), 0), (make("y"), 1)])
    # both finish at ~10us: true parallelism in virtual time
    assert abs(stamps["x"] - stamps["y"]) < 1_000


def test_context_switch_cost_charged(machine):
    def a(ctx):
        yield YieldCPU()
        yield Compute(10)

    def b(ctx):
        yield Compute(10)

    threads, eng = run_threads(machine, [(a, 0), (b, 0)])
    # at least one real switch happened, costing context_switch_ns
    assert eng.now >= machine.spec.context_switch_ns


def test_long_compute_sliced_by_quantum(machine):
    quantum = machine.spec.timer_quantum_ns

    def body(ctx):
        yield Compute(3 * quantum + 17)
        return ctx.now

    result, eng = run_thread(machine, body)
    assert result == 3 * quantum + 17  # no time lost to slicing


def test_subclassed_instruction_is_rejected_naming_the_thread(machine):
    """Dispatch is by exact type: a subclassed instruction is never run
    as its base class."""

    class LongCompute(Compute):
        pass

    def body(ctx):
        yield LongCompute(1_000)

    with pytest.raises(TypeError, match="unknown instruction.*'odd-one'"):
        sched = Scheduler(machine, Engine(), rng=Rng(42))
        sched.spawn(body, 0, name="odd-one")
        sched.engine.run()


def test_round_robin_between_equal_threads(machine):
    quantum = machine.spec.timer_quantum_ns
    finish = {}

    def make(name):
        def body(ctx):
            yield Compute(3 * quantum)
            finish[name] = ctx.now

        return body

    run_threads(machine, [(make("a"), 0), (make("b"), 0)])
    # with rotation both finish within ~one quantum of each other,
    # rather than a completing fully before b starts
    assert abs(finish["a"] - finish["b"]) <= 2 * quantum


def test_sleep_wakes_on_time(machine):
    def body(ctx):
        t0 = ctx.now
        yield Sleep(5_000)
        return ctx.now - t0

    result, _ = run_thread(machine, body)
    assert result >= 5_000


def test_block_on_flag_and_set(machine):
    eng = Engine()
    sched = Scheduler(machine, eng, rng=Rng(0))
    flag = Flag(machine, eng, home=0, name="f")
    log = []

    def waiter(ctx):
        yield BlockOn(flag)
        log.append(("woke", ctx.now))

    def setter(ctx):
        yield Compute(2_000)
        yield SetFlag(flag)

    sched.spawn(waiter, 3, name="w")
    sched.spawn(setter, 0, name="s")
    eng.run()
    assert log and log[0][1] >= 2_000


def test_block_on_already_set_flag_returns_fast(machine):
    eng = Engine()
    sched = Scheduler(machine, eng, rng=Rng(0))
    flag = Flag(machine, eng, home=0)
    flag.set(0)

    def body(ctx):
        yield BlockOn(flag)
        return ctx.now

    t = sched.spawn(body, 0)
    eng.run()
    assert t.result < 1_000


def test_spin_on_flag_notices_after_transfer(machine):
    eng = Engine()
    sched = Scheduler(machine, eng, rng=Rng(0))
    flag = Flag(machine, eng, home=0, name="f")
    log = {}

    def spinner(ctx):
        yield SpinOn(flag)
        log["noticed"] = ctx.now

    def setter(ctx):
        yield Compute(1_000)
        yield SetFlag(flag)
        log["set"] = ctx.now

    sched.spawn(spinner, 7, name="sp")
    sched.spawn(setter, 0, name="st")
    eng.run()
    assert log["noticed"] >= 1_000 + machine.xfer(0, 7) - 5


def test_join_returns_result(machine):
    eng = Engine()
    sched = Scheduler(machine, eng, rng=Rng(0))

    def child(ctx):
        yield Compute(500)
        return "payload"

    def parent(ctx):
        t = ctx.spawn(child, 1, name="child")
        res = yield from ctx.scheduler.join(t)
        return res

    p = sched.spawn(parent, 0)
    eng.run()
    assert p.result == "payload"


def test_join_finished_thread_immediate(machine):
    eng = Engine()
    sched = Scheduler(machine, eng, rng=Rng(0))

    def child(ctx):
        yield Compute(10)
        return 42

    def parent(ctx):
        t = ctx.spawn(child, 1)
        yield Compute(50_000)  # child long done
        res = yield from ctx.scheduler.join(t)
        return res

    p = sched.spawn(parent, 0)
    eng.run()
    assert p.result == 42


def test_park_only_for_idle_thread(machine):
    def body(ctx):
        yield Park()

    eng = Engine()
    sched = Scheduler(machine, eng, rng=Rng(0))
    sched.spawn(body, 0)
    with pytest.raises(RuntimeError):
        eng.run()


def test_hook_runs_at_idle_keypoint(machine):
    eng = Engine()
    sched = Scheduler(machine, eng, rng=Rng(0))
    calls = []

    def hook(core):
        calls.append(core)
        return (0, 0, False)
        yield  # pragma: no cover - make it a generator

    sched.progression_hook = hook

    def body(ctx):
        yield Compute(100)

    sched.spawn(body, 0)
    eng.run()
    assert calls, "idle loops must invoke the progression hook"
    assert sched.keypoint_count(Keypoint.IDLE) > 0


def test_deadlock_detected_for_blocked_thread(machine):
    eng = Engine()
    sched = Scheduler(machine, eng, rng=Rng(0))
    flag = Flag(machine, eng, home=0, name="never")

    def body(ctx):
        yield BlockOn(flag)

    sched.spawn(body, 0)
    with pytest.raises(DeadlockError):
        eng.run()
    assert sched.blocked_threads()


def test_sleeping_thread_is_not_deadlock(machine):
    eng = Engine()
    sched = Scheduler(machine, eng, rng=Rng(0))

    def body(ctx):
        yield Sleep(1_000)

    sched.spawn(body, 0)
    eng.run()  # must not raise


def test_system_prio_preempts_normal(machine):
    eng = Engine()
    sched = Scheduler(machine, eng, rng=Rng(0))
    order = []

    def normal(ctx):
        for _ in range(4):
            yield Compute(1_000)
            order.append("n")

    def system(ctx):
        yield Compute(10)
        order.append("S")

    sched.spawn(normal, 0)

    def spawn_sys():
        t = sched.spawn(system, 0, name="sys", prio=Prio.SYSTEM)

    eng.schedule(1_500, spawn_sys)
    eng.run()
    # the system thread runs before the normal thread finishes
    assert "S" in order and order.index("S") < len(order) - 1


def test_cpu_time_accounting(machine):
    eng = Engine()
    sched = Scheduler(machine, eng, rng=Rng(0))

    def body(ctx):
        yield Compute(7_000)

    t = sched.spawn(body, 2)
    eng.run()
    assert t.cpu_ns >= 7_000
    assert sched.cores[2].busy_ns >= 7_000
    assert sched.core_busy_ns()[2] == sched.cores[2].busy_ns


def test_normal_live_tracks_threads(machine):
    eng = Engine()
    sched = Scheduler(machine, eng, rng=Rng(0))
    assert sched.normal_live == 0

    def body(ctx):
        yield Compute(10)

    sched.spawn(body, 0)
    assert sched.normal_live == 1
    eng.run()
    assert sched.normal_live == 0
