"""SpinLock: mutual exclusion, handoff policy, stats, starvation bound."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine
from repro.sync.spinlock import SpinLock
from repro.topology.builder import borderline, kwak


def acquire(lock, core, grant_cb):
    """Request ``lock`` like the scheduler's Acquire: a free lock grants
    ``grant_cb`` after try_acquire's delay, a held one queues a spinner
    (returned, for cancel_waiter)."""
    delay = lock.try_acquire(core)
    if delay is None:
        return lock.wait(core, grant_cb)
    lock.engine.post(delay, grant_cb)
    return None


def test_uncontended_acquire_grants_quickly():
    m, eng = borderline(), Engine()
    lock = SpinLock(m, eng, name="L")
    granted = []
    acquire(lock, 0, lambda: granted.append(eng.now))
    eng.run()
    assert granted and granted[0] <= m.xfer(0, 0) + m.spec.cas_ns + 5
    assert lock.held and lock.holder == 0


def test_release_without_hold_raises():
    m, eng = borderline(), Engine()
    lock = SpinLock(m, eng)
    with pytest.raises(RuntimeError):
        lock.release(0)


def test_release_by_non_holder_raises():
    m, eng = borderline(), Engine()
    lock = SpinLock(m, eng)
    acquire(lock, 0, lambda: None)
    eng.run()
    with pytest.raises(RuntimeError):
        lock.release(3)


def test_contended_handoff_to_nearest():
    m, eng = borderline(), Engine()
    lock = SpinLock(m, eng, name="L")
    order = []
    acquire(lock, 0, lambda: order.append(0))
    eng.run()
    # cores 7 (far) then 1 (sibling) start spinning
    acquire(lock, 7, lambda: order.append(7))
    acquire(lock, 1, lambda: order.append(1))
    lock.release(0)
    eng.run()
    assert order == [0, 1]  # sibling wins despite arriving second
    lock.release(1)
    eng.run()
    assert order == [0, 1, 7]
    lock.release(7)
    assert not lock.held


def test_handoff_delay_scales_with_distance():
    m = kwak()
    # near waiter
    eng1 = Engine()
    l1 = SpinLock(m, eng1)
    acquire(l1, 0, lambda: None)
    eng1.run()
    t_near = []
    acquire(l1, 1, lambda: t_near.append(eng1.now))
    base = eng1.now
    l1.release(0)
    eng1.run()
    near_delay = t_near[0] - base
    # far waiter
    eng2 = Engine()
    l2 = SpinLock(m, eng2)
    acquire(l2, 0, lambda: None)
    eng2.run()
    t_far = []
    acquire(l2, 15, lambda: t_far.append(eng2.now))
    base = eng2.now
    l2.release(0)
    eng2.run()
    far_delay = t_far[0] - base
    assert far_delay > near_delay


def test_contended_factor_applies_with_multiple_waiters():
    m = kwak()
    eng = Engine()
    lock = SpinLock(m, eng)
    acquire(lock, 0, lambda: None)
    eng.run()
    granted = []
    acquire(lock, 4, lambda: granted.append(("a", eng.now)))
    acquire(lock, 8, lambda: granted.append(("b", eng.now)))
    t0 = eng.now
    lock.release(0)
    eng.run(until=t0 + 10_000_000)
    # the first handoff (2 waiters present) pays the contended multiplier
    first_delay = granted[0][1] - t0
    assert first_delay >= m.xfer(0, 4) * m.spec.contended_factor * 0.9


def test_starvation_bound_promotes_oldest():
    m = borderline()
    eng = Engine()
    lock = SpinLock(m, eng, name="L")
    order = []
    acquire(lock, 0, lambda: order.append(0))
    eng.run()
    # a far core waits first...
    acquire(lock, 6, lambda: order.append(6))
    # ...time passes beyond the starvation bound...
    eng.schedule(m.spec.lock_starvation_ns + 1, lambda: None)
    eng.run()
    # ...then a nearby core joins and the lock is released
    acquire(lock, 1, lambda: order.append(1))
    lock.release(0)
    eng.run()
    assert order[1] == 6, "starved distant waiter must win over the sibling"


def test_cancel_waiter():
    m, eng = borderline(), Engine()
    lock = SpinLock(m, eng)
    acquire(lock, 0, lambda: None)
    eng.run()
    granted = []
    w = acquire(lock, 5, lambda: granted.append(5))
    assert w is not None
    assert lock.cancel_waiter(w) is True
    assert lock.cancel_waiter(w) is False  # already gone
    lock.release(0)
    eng.run()
    assert granted == [] and not lock.held


def test_stats_counters():
    m, eng = borderline(), Engine()
    lock = SpinLock(m, eng)
    acquire(lock, 0, lambda: None)
    eng.run()
    acquire(lock, 2, lambda: None)
    acquire(lock, 3, lambda: None)
    lock.release(0)
    eng.run()
    lock.release(lock.holder)
    eng.run()
    st_ = lock.stats
    assert st_.acquires == 3
    assert st_.uncontended == 1 and st_.contended == 2
    assert st_.handoffs == 2
    assert st_.max_waiters == 2
    assert st_.total_spin_ns > 0
    assert 0 < st_.contention_ratio < 1
    assert st_.mean_spin_ns() > 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=12))
def test_property_mutual_exclusion_and_liveness(cores):
    """Random acquire sequences: never two concurrent holders; everyone
    eventually gets the lock; release count matches acquire count."""
    m, eng = borderline(), Engine()
    lock = SpinLock(m, eng, name="P")
    active = []
    completed = []

    def make_user(idx, core):
        def on_grant():
            active.append(idx)
            assert len(active) == 1, "two holders at once"
            # hold briefly, then release
            def drop():
                active.remove(idx)
                completed.append(idx)
                lock.release(core)

            eng.schedule(50, drop)

        return on_grant

    for i, core in enumerate(cores):
        acquire(lock, core, make_user(i, core))
    eng.run()
    assert sorted(completed) == list(range(len(cores)))
    assert not lock.held
