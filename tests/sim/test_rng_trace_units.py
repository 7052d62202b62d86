"""Rng determinism, tracer filtering, unit formatting."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.rng import Rng
from repro.sim.trace import NULL_TRACER, Tracer
from repro.sim.units import MS, NS, SEC, US, fmt_ns


# ---------------------------------------------------------------- rng
def test_same_seed_same_stream():
    a, b = Rng(7), Rng(7)
    assert [a.randint(0, 100) for _ in range(20)] == [
        b.randint(0, 100) for _ in range(20)
    ]


def test_different_seeds_diverge():
    a, b = Rng(1), Rng(2)
    assert [a.randint(0, 10**9) for _ in range(5)] != [
        b.randint(0, 10**9) for _ in range(5)
    ]


def test_fork_is_deterministic_and_independent():
    base = Rng(5)
    f1, f2 = base.fork(1), base.fork(2)
    again = Rng(5).fork(1)
    assert f1.randint(0, 10**9) == again.randint(0, 10**9)
    assert f1.seed != f2.seed


@given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=0, max_value=0.9))
def test_jitter_bounds(base, frac):
    r = Rng(3)
    v = r.jitter_ns(base, frac)
    assert 0 <= v
    assert v >= base * (1 - frac) - 1
    assert v <= base * (1 + frac) + 1


def test_jitter_zero_frac_identity():
    assert Rng(0).jitter_ns(1234, 0.0) == 1234


# ---------------------------------------------------------------- trace
def test_tracer_disabled_records_nothing():
    t = Tracer(enabled=False)
    t.emit(1, "cat", "actor", "msg")
    assert len(t) == 0


def test_tracer_records_and_filters():
    t = Tracer(enabled=True)
    t.emit(1, "lock", "core0", "acquired")
    t.emit(2, "nic", "node1", "frame")
    t.emit(3, "lock", "core1", "released", extra=42)
    assert len(t) == 3
    locks = t.select("lock")
    assert [r.message for r in locks] == ["acquired", "released"]
    assert locks[1].data == {"extra": 42}


def test_tracer_limit_drops():
    t = Tracer(enabled=True, limit=2)
    for i in range(5):
        t.emit(i, "c", "a", "m")
    assert len(t) == 2 and t.dropped == 3


def test_tracer_limit_keeps_earliest_records():
    t = Tracer(enabled=True, limit=3)
    for i in range(6):
        t.emit(i, "c", "a", f"m{i}")
    assert [r.message for r in t.records] == ["m0", "m1", "m2"]
    assert t.dropped == 3


def test_tracer_disabled_emits_do_not_count_as_dropped():
    t = Tracer(enabled=False, limit=1)
    for i in range(4):
        t.emit(i, "c", "a", "m")
    assert len(t) == 0 and t.dropped == 0


def test_tracer_clear_resets_dropped_and_capacity():
    t = Tracer(enabled=True, limit=2)
    for i in range(4):
        t.emit(i, "c", "a", "m")
    assert t.dropped == 2
    t.clear()
    assert t.dropped == 0
    t.emit(9, "c", "a", "after")  # capacity is available again
    assert len(t) == 1 and t.dropped == 0


def test_tracer_limit_zero_drops_everything():
    t = Tracer(enabled=True, limit=0)
    t.emit(1, "c", "a", "m")
    assert len(t) == 0 and t.dropped == 1


def test_tracer_dump_and_clear():
    t = Tracer(enabled=True)
    t.emit(10, "c", "a", "hello")
    assert "hello" in t.dump()
    t.clear()
    assert len(t) == 0 and t.dropped == 0


def test_null_tracer_is_disabled():
    assert NULL_TRACER.enabled is False


def test_null_tracer_cannot_be_enabled():
    """NULL_TRACER is the shared process-wide default: flipping its
    ``enabled`` flag would silently start recording for every component
    that never asked for tracing.  The assignment must raise."""
    with pytest.raises(AttributeError):
        NULL_TRACER.enabled = True
    assert NULL_TRACER.enabled is False
    assert isinstance(NULL_TRACER, Tracer)  # still substitutable


def test_null_tracer_emit_is_a_hard_noop():
    NULL_TRACER.emit(123, "cat", "actor", "message", phase="run", core=0)
    assert len(NULL_TRACER.records) == 0
    assert NULL_TRACER.dropped == 0
    assert len(NULL_TRACER) == 0


# ---------------------------------------------------------------- units
def test_unit_constants():
    assert (NS, US, MS, SEC) == (1, 1_000, 1_000_000, 1_000_000_000)


@pytest.mark.parametrize(
    "value,expect",
    [
        (0, "0 ns"),
        (750, "750 ns"),
        (13585, "13.59 us"),
        (2_000_000, "2.00 ms"),
        (3_500_000_000, "3.500 s"),
    ],
)
def test_fmt_ns(value, expect):
    assert fmt_ns(value) == expect
