"""Flag: set/reset semantics, spinner/blocker wakeups, costs."""

import pytest

from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.threads.flag import Flag
from repro.threads.instructions import BlockOn, Compute, SetFlag, SpinOn
from repro.threads.scheduler import Scheduler
from repro.topology.builder import borderline, kwak


def test_initial_state_clear():
    m, eng = borderline(), Engine()
    f = Flag(m, eng, home=0, name="f")
    assert not f.is_set
    assert f.waiter_count() == 0


def test_set_marks_the_word_with_a_local_store():
    m, eng = borderline(), Engine()
    f = Flag(m, eng, home=0)
    assert f.set(0) == m.spec.local_ns
    assert f.is_set


def test_reset_allows_reuse():
    m, eng = borderline(), Engine()
    f = Flag(m, eng, home=0)
    f.set(0)
    f.reset(0)
    assert not f.is_set


def test_reset_with_waiters_raises():
    m, eng = borderline(), Engine()
    f = Flag(m, eng, home=0)
    f.add_spinner(1, lambda: None)
    with pytest.raises(RuntimeError):
        f.reset(0)


def test_read_cost_hits_after_first():
    m, eng = kwak(), Engine()
    f = Flag(m, eng, home=0)
    assert f.read(12) == m.xfer(0, 12)
    assert f.read(12) == m.spec.local_ns


def test_spinner_wake_delay_is_one_transfer():
    m, eng = kwak(), Engine()
    f = Flag(m, eng, home=0)
    woken = []
    f.add_spinner(15, lambda: woken.append(eng.now))
    f.set(0)
    eng.run()
    assert woken == [m.xfer(0, 15)]


def test_remove_spinner_prevents_wake():
    m, eng = borderline(), Engine()
    f = Flag(m, eng, home=0)
    woken = []
    entry = f.add_spinner(3, lambda: woken.append(1))
    assert f.remove_spinner(entry) is True
    assert f.remove_spinner(entry) is False
    f.set(0)
    eng.run()
    assert woken == []


def test_multiple_spinners_all_wake():
    m, eng = kwak(), Engine()
    f = Flag(m, eng, home=0)
    woken = []
    for c in (1, 7, 15):
        f.add_spinner(c, lambda c=c: woken.append((c, eng.now)))
    f.set(0)
    eng.run()
    assert {c for c, _ in woken} == {1, 7, 15}
    # nearer spinners notice earlier
    times = dict(woken)
    assert times[1] < times[7] <= times[15]


def test_blocked_thread_wakes_via_scheduler():
    m = borderline()
    eng = Engine()
    sched = Scheduler(m, eng, rng=Rng(1))
    f = Flag(m, eng, home=0)
    log = {}

    def waiter(ctx):
        yield BlockOn(f)
        log["woke"] = ctx.now

    def setter(ctx):
        yield Compute(3_000)
        yield SetFlag(f)
        log["set"] = ctx.now

    sched.spawn(waiter, 5, name="w")
    sched.spawn(setter, 0, name="s")
    eng.run()
    assert log["woke"] > log["set"]


def test_spin_then_block_mixed_waiters():
    m = borderline()
    eng = Engine()
    sched = Scheduler(m, eng, rng=Rng(1))
    f = Flag(m, eng, home=0)
    woke = []

    def spinner(ctx):
        yield SpinOn(f)
        woke.append("spin")

    def blocker(ctx):
        yield BlockOn(f)
        woke.append("block")

    def setter(ctx):
        yield Compute(1_000)
        yield SetFlag(f)

    sched.spawn(spinner, 2, name="sp")
    sched.spawn(blocker, 4, name="bl")
    sched.spawn(setter, 0, name="st")
    eng.run()
    assert sorted(woke) == ["block", "spin"]
