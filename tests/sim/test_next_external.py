"""``Engine.next_external_time`` edge cases.

The quiescence leap and the shard coordinator both lean on this one
read-only query: the earliest live queued event that is not an elidable
idle carrier.  A wrong answer either stalls a shard window (too late) or
violates the conservative-lookahead guarantee (too early), so the edge
cases get pinned here, on the engine and on the test-only plain-heap
reference (:class:`~tests.sim.refengine.HeapqEngine`) that defines the
answer: the empty-engine sentinel, overflow-heap-only wheel state, dead
pooled carriers sitting at the head, carrier exclusion, and a randomized
wheel-vs-reference agreement fuzz.
"""

import random

import pytest

from repro.sim.engine import WHEEL_SHIFT, WHEEL_SLOTS, Engine

from .refengine import HeapqEngine

HORIZON_NS = WHEEL_SLOTS << WHEEL_SHIFT

#: every edge case runs on the wheel and on the reference
both = pytest.mark.parametrize("make", [Engine, HeapqEngine], ids=["wheel", "heap"])


def _noop():
    pass


@both
def test_empty_engine_returns_none(make):
    eng = make()
    assert eng.next_external_time(set()) is None
    # ... and after a drain, not just at birth
    eng.post(10, _noop)
    eng.run()
    assert eng.next_external_time(set()) is None


@both
def test_single_post_is_external(make):
    eng = make()
    eng.post(1234, _noop)
    assert eng.next_external_time(set()) == 1234


def test_overflow_heap_only_wheel_state():
    """Every event beyond the wheel window: the wheel tiers are empty and
    the answer must come from the overflow heap alone."""
    eng = Engine()
    far = HORIZON_NS * 3 + 17
    eng.post_at(far + 500, _noop)
    eng.post_at(far, _noop)
    eng.post_at(far + 9_999_999, _noop)
    assert not any(eng._slots), "events unexpectedly landed in the wheel"
    assert not eng._nowq
    assert eng.next_external_time(set()) == far


def test_overflow_only_after_cancel_in_window():
    """Cancel the only in-window event; the overflow minimum wins."""
    eng = Engine()
    handle = eng.schedule(100, _noop)
    far = HORIZON_NS * 2
    eng.post_at(far, _noop)
    handle.cancel()
    assert eng.next_external_time(set()) == far


@both
def test_dead_carriers_at_head_are_skipped(make):
    """Cancelled (pooled-dead) carriers at the queue head must not be
    reported — and the query must not pop or recycle them either."""
    eng = make()
    dead = [eng.schedule(t, _noop) for t in (5, 6, 7)]
    eng.post(5_000, _noop)
    for handle in dead:
        handle.cancel()
    before = eng.pending()
    assert eng.next_external_time(set()) == 5_000
    # read-only contract: the dead entries are still physically queued
    assert eng.pending() == before


@both
def test_all_dead_returns_none(make):
    eng = make()
    handles = [eng.schedule(t, _noop) for t in (3, 9, 27)]
    for handle in handles:
        handle.cancel()
    assert eng.next_external_time(set()) is None


@both
def test_carriers_are_excluded(make):
    """Handles classified as idle carriers don't bound the leap; the
    first non-carrier behind them does."""
    eng = make()
    carrier = eng.schedule(10, _noop)
    external = eng.schedule(400, _noop)
    assert eng.next_external_time(set()) == 10
    assert eng.next_external_time({carrier}) == 400
    assert eng.next_external_time({carrier, external}) is None


def test_same_instant_fifo_bounds_at_now():
    """A pending same-instant entry means the leap can't move at all:
    the wheel reports ``now`` without touching its calendar tiers."""
    eng = Engine()
    eng.post(50, _noop)
    eng.run()
    assert eng.now == 50
    eng.post_soon(_noop)  # lands in the nowq outside a run
    eng.post(7_000, _noop)
    assert eng.next_external_time(set()) == 50


@both
def test_later_bucket_external_behind_carrier_bucket(make):
    """A bucket (or heap head) that is pure carriers must not hide an
    external event in a later bucket."""
    eng = make()
    carriers = {eng.schedule(8, _noop), eng.schedule(12, _noop)}
    # far enough to land in a different wheel bucket
    eng.schedule((1 << WHEEL_SHIFT) * 3 + 5, _noop)
    assert eng.next_external_time(carriers) == (1 << WHEEL_SHIFT) * 3 + 5


def test_randomized_wheel_heap_agreement():
    """Wheel and reference, same scripted workload: next_external_time
    must agree at every checkpoint, for the empty carrier set and for a
    random subset of live handles."""
    for seed in range(12):
        rng = random.Random(3000 + seed)
        engines = (Engine(), HeapqEngine())
        handle_pairs = []  # (wheel_handle, heap_handle)
        for _step in range(rng.randrange(10, 60)):
            op = rng.random()
            if op < 0.45:
                delay = rng.choice(
                    [0, 1, 37, 900, 4096, 8192, HORIZON_NS + 13, HORIZON_NS * 2]
                )
                handle_pairs.append(
                    tuple(eng.schedule(delay, _noop) for eng in engines)
                )
            elif op < 0.60:
                delay = rng.randrange(0, HORIZON_NS * 2)
                for eng in engines:
                    eng.post(delay, _noop)
            elif op < 0.75 and handle_pairs:
                pair = handle_pairs.pop(rng.randrange(len(handle_pairs)))
                for handle in pair:
                    handle.cancel()
            elif op < 0.9:
                bound = rng.randrange(0, HORIZON_NS)
                fired = {eng.run(until=eng.now + bound) for eng in engines}
                assert len(fired) == 1, "engines diverged while running"
                handle_pairs = [p for p in handle_pairs if p[0].alive]
            # checkpoint: plain and carrier-filtered queries agree
            wheel, heap = engines
            assert wheel.next_external_time(set()) == heap.next_external_time(
                set()
            ), f"seed {3000 + seed}: engines disagree"
            if handle_pairs:
                k = rng.randrange(0, len(handle_pairs) + 1)
                subset = rng.sample(handle_pairs, k)
                wset = {p[0] for p in subset}
                hset = {p[1] for p in subset}
                assert wheel.next_external_time(wset) == heap.next_external_time(
                    hset
                ), f"seed {3000 + seed}: carrier-filtered disagreement"
