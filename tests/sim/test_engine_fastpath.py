"""The fire-and-forget fast path: post/post_at/post_soon, non-finite
delay rejection, and O(1) pending bookkeeping."""

import math

import pytest

from repro.sim.engine import Engine


def test_post_orders_with_schedule():
    eng = Engine()
    seen = []
    eng.schedule(30, seen.append, "s30")
    eng.post(10, seen.append, "p10")
    eng.post_at(20, seen.append, "a20")
    eng.run()
    assert seen == ["p10", "a20", "s30"]
    assert eng.now == 30


def test_post_ties_fire_in_submission_order():
    eng = Engine()
    seen = []
    eng.schedule(5, seen.append, "sched")
    eng.post(5, seen.append, "post")
    eng.post_at(5, seen.append, "post_at")
    eng.run()
    assert seen == ["sched", "post", "post_at"]


def test_post_soon_runs_at_current_time():
    eng = Engine()
    times = []
    eng.post(7, lambda: eng.post_soon(lambda: times.append(eng.now)))
    eng.run()
    assert times == [7]


def test_post_negative_delay_raises():
    with pytest.raises(ValueError):
        Engine().post(-1, lambda: None)


def test_post_at_past_raises():
    eng = Engine()
    eng.post(10, lambda: None)
    eng.run()
    with pytest.raises(ValueError):
        eng.post_at(5, lambda: None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_delay_raises(bad):
    eng = Engine()
    with pytest.raises(ValueError, match="non-finite"):
        eng.schedule(bad, lambda: None)
    with pytest.raises(ValueError, match="non-finite"):
        eng.post(bad, lambda: None)


def test_post_at_rounds_up_and_refuses_non_finite():
    """A fractional absolute time fires at the next whole ns, like a
    fractional ``schedule`` delay, and a non-finite one is refused
    before anything is queued."""
    eng = Engine()
    seen = []
    eng.post_at(5000.5, lambda: seen.append(("post_at", eng.now)))
    eng.schedule(5000.5, lambda: seen.append(("schedule", eng.now)))
    eng.run()
    assert seen == [("post_at", 5001), ("schedule", 5001)]
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            eng.post_at(bad, lambda: None)
    with pytest.raises(ValueError, match="in the past"):
        eng.post_at(5000.5, lambda: None)
    assert eng.pending() == 0


def test_fractional_delay_rounds_up():
    eng = Engine()
    times = []
    eng.post(0.25, lambda: times.append(eng.now))
    eng.schedule(1.5, lambda: times.append(eng.now))
    eng.run()
    assert times == [1, 2]


def test_pending_is_consistent_with_posts_and_cancels():
    eng = Engine()
    assert eng.pending() == 0
    eng.post(5, lambda: None)
    ev = eng.schedule(6, lambda: None)
    eng.post_soon(lambda: None)
    assert eng.pending() == 3
    ev.cancel()
    assert eng.pending() == 2
    ev.cancel()  # idempotent
    assert eng.pending() == 2
    eng.run()
    assert eng.pending() == 0
    assert eng.fired == 2


def test_cancel_after_fire_is_a_noop():
    eng = Engine()
    ev = eng.schedule(1, lambda: None)
    eng.schedule(2, lambda: None)
    eng.run()
    ev.cancel()  # must not corrupt the live count
    assert eng.pending() == 0
    eng.post(3, lambda: None)
    assert eng.pending() == 1
    eng.run()
    assert eng.pending() == 0


def test_fired_counter_flushed_on_normal_return():
    eng = Engine()
    for i in range(7):
        eng.post(i + 1, lambda: None)
    eng.run()
    assert eng.fired == 7


def test_fired_counter_flushed_when_callback_raises():
    eng = Engine()
    eng.post(1, lambda: None)

    def boom():
        raise RuntimeError("boom")

    eng.post(2, boom)
    with pytest.raises(RuntimeError):
        eng.run()
    assert eng.fired == 2  # the successful one AND the raising one
