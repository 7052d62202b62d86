"""Engine: event ordering, cancellation, run bounds, deadlock detection."""

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


def test_call_soon_runs_at_current_time():
    eng = Engine()
    times = []
    eng.schedule(7, lambda: eng.call_soon(lambda: times.append(eng.now)))
    eng.run()
    assert times == [7]


def test_schedule_at_absolute():
    eng = Engine()
    seen = []
    eng.schedule_at(100, seen.append, "x")
    eng.run()
    assert seen == ["x"] and eng.now == 100


def test_schedule_at_past_raises():
    eng = Engine()
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(ValueError):
        eng.schedule_at(5, lambda: None)


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


def test_run_max_events():
    eng = Engine()
    for i in range(10):
        eng.schedule(i + 1, lambda: None)
    eng.run(max_events=3)
    assert eng.fired == 3


def test_step_returns_false_when_empty():
    assert Engine().step() is False


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


def test_drain_hook_extends_run():
    eng = Engine()
    refills = []

    def refill():
        if len(refills) < 3:
            refills.append(1)
            eng.schedule(10, lambda: None)
            return True
        return False

    eng.drain_hooks.append(refill)
    eng.run()
    assert len(refills) == 3
    assert eng.now == 30


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
