"""Engine: event ordering, cancellation, run bounds, deadlock detection."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import DeadlockError, Engine, SimulationError

from .refengine import HeapqEngine


def test_clock_starts_at_zero():
    assert Engine().now == 0


def test_schedule_and_run_order():
    eng = Engine()
    seen = []
    eng.schedule(30, seen.append, "c")
    eng.schedule(10, seen.append, "a")
    eng.schedule(20, seen.append, "b")
    eng.run()
    assert seen == ["a", "b", "c"]
    assert eng.now == 30


def test_ties_fire_in_submission_order():
    eng = Engine()
    seen = []
    for tag in range(10):
        eng.schedule(5, seen.append, tag)
    eng.run()
    assert seen == list(range(10))


def test_negative_delay_raises():
    with pytest.raises(ValueError):
        Engine().schedule(-1, lambda: None)


def test_fractional_delay_rounds_up():
    eng = Engine()
    eng.schedule(0.25, lambda: None)
    assert eng.peek_time() == 1


def test_cancel_prevents_callback():
    eng = Engine()
    seen = []
    ev = eng.schedule(10, seen.append, "dead")
    eng.schedule(20, seen.append, "live")
    ev.cancel()
    eng.run()
    assert seen == ["live"]


def test_cancel_is_idempotent():
    eng = Engine()
    ev = eng.schedule(10, lambda: None)
    ev.cancel()
    ev.cancel()
    eng.run()
    assert eng.fired == 0


def test_run_until_stops_clock_at_bound():
    eng = Engine()
    eng.schedule(100, lambda: None)
    eng.schedule(500, lambda: None)
    assert eng.run(until=200) == 200
    assert eng.fired == 1
    # remaining event still fires on resume
    eng.run()
    assert eng.fired == 2 and eng.now == 500


@pytest.mark.parametrize("make", [Engine, HeapqEngine], ids=["wheel", "reference"])
def test_run_until_before_now_is_refused(make):
    """The clock never runs backwards: a bound behind ``now`` raises and
    leaves the clock alone, so a later post cannot land before an event
    that already fired."""
    eng = make()
    seen = []
    eng.post(100, seen.append, "a")
    eng.post(10_000, seen.append, "b")
    assert eng.run(until=200) == 200
    with pytest.raises(ValueError, match="until 50 ns: the clock is at 200 ns"):
        eng.run(until=50)
    assert eng.now == 200
    eng.post(10, seen.append, "c")
    assert eng.run() == 10_000
    assert seen == ["a", "c", "b"]


@pytest.mark.parametrize("make", [Engine, HeapqEngine], ids=["wheel", "reference"])
def test_bounded_run_ends_at_until_past_a_cancelled_entry(make):
    """Only a cancelled handle lies past the bound: the run still ends at
    ``until``, not at the last live event."""
    eng = make()
    eng.schedule(100, lambda: None).cancel()
    assert eng.run(until=50) == 50
    assert eng.now == 50 and eng.fired == 0 and eng.pending() == 0


@pytest.mark.parametrize("make", [Engine, HeapqEngine], ids=["wheel", "reference"])
def test_fractional_until_stops_the_clock_at_a_whole_ns(make):
    """Times are whole ns: a fractional bound fires the events at or
    before it and leaves ``now == floor(until)``, an int the engine can
    keep inserting at.  A non-finite bound raises, naming it, and runs
    nothing."""
    eng = make()
    seen = []
    for t in (10, 5000, 5001, 10**7):
        eng.post(t, seen.append, t)
    assert eng.run(until=5000.7) == 5000
    assert type(eng.now) is int and eng.now == 5000
    assert seen == [10, 5000]
    eng.schedule(1, seen.append, "next")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"until {bad!r} ns: not a finite time"):
            eng.run(until=bad)
    assert eng.now == 5000 and seen == [10, 5000]
    assert eng.run() == 10**7
    assert seen == [10, 5000, 5001, "next", 10**7]


def test_pending_counts_live_events():
    eng = Engine()
    ev = eng.schedule(1, lambda: None)
    eng.schedule(2, lambda: None)
    assert eng.pending() == 2
    ev.cancel()
    assert eng.pending() == 1


def test_callbacks_can_schedule_more():
    eng = Engine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            eng.schedule(10, chain, n + 1)

    eng.schedule(0, chain, 0)
    eng.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert eng.now == 50


def test_run_is_not_reentrant():
    eng = Engine()

    def bad():
        eng.run()

    eng.schedule(1, bad)
    with pytest.raises(SimulationError):
        eng.run()


def test_deadlock_detection_via_blocked_reporters():
    eng = Engine()
    eng.blocked_reporters.append(lambda: 2)
    eng.schedule(1, lambda: None)
    with pytest.raises(DeadlockError):
        eng.run()


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
def test_property_events_fire_in_time_order(delays):
    eng = Engine()
    fired = []
    for d in delays:
        eng.schedule(d, lambda d=d: fired.append((eng.now, d)))
    eng.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert sorted(d for _, d in fired) == sorted(delays)
    assert all(t == d for t, d in fired)


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=40),
    st.data(),
)
def test_property_cancelled_events_never_fire(delays, data):
    eng = Engine()
    fired = []
    events = [eng.schedule(d, lambda i=i: fired.append(i)) for i, d in enumerate(delays)]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(events) - 1), max_size=len(events))
    )
    for i in to_cancel:
        events[i].cancel()
    eng.run()
    assert set(fired) == set(range(len(events))) - to_cancel
