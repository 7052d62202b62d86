"""``Engine.next_external_time`` edge cases.

The quiescence leap and the shard coordinator both lean on this one
read-only query: the earliest live queued event that is not an elidable
idle carrier.  A wrong answer either stalls a shard window (too late) or
violates the conservative-lookahead guarantee (too early), so the edge
cases get pinned here, on the engine and on the test-only plain-heap
reference (:class:`~tests.sim.refengine.HeapqEngine`) that defines the
answer: the empty-engine sentinel, far-future-only state, each case of
the heap head (a post, a live handle, a carrier, a dead handle), carrier
exclusion, and randomized engine-vs-reference agreement fuzzes, between
runs and mid-drain (at the run loop's leap consult and from inside
callbacks).
"""

import random

import pytest

from repro.sim.engine import Engine

from .refengine import HeapqEngine

#: ~1 ms: far-future timers (retransmit timeouts, timer quanta)
FAR_NS = 1 << 20

#: every edge case runs on the engine and on the reference
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
    """Only far-future events, queued out of order: the earliest wins."""
    eng = Engine()
    far = FAR_NS * 3 + 17
    eng.post_at(far + 500, _noop)
    eng.post_at(far, _noop)
    eng.post_at(far + 9_999_999, _noop)
    assert not eng._nowq
    assert eng.next_external_time(set()) == far


def test_overflow_only_after_cancel_in_window():
    """Cancel the only near event; the far-future minimum wins."""
    eng = Engine()
    handle = eng.schedule(100, _noop)
    far = FAR_NS * 2
    eng.post_at(far, _noop)
    handle.cancel()
    assert eng.next_external_time(set()) == far


@both
def test_dead_carriers_at_head_are_skipped(make):
    """Cancelled carriers at the queue head must not be reported — and
    the query must not pop them either."""
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
    the engine reports ``now`` without looking at its heap."""
    eng = Engine()
    eng.post(50, _noop)
    eng.run()
    assert eng.now == 50
    eng.post_soon(_noop)  # lands in the nowq outside a run
    eng.post(7_000, _noop)
    assert eng.next_external_time(set()) == 50


@both
def test_later_bucket_external_behind_carrier_bucket(make):
    """A run of carriers at the head must not hide a later external
    event."""
    eng = make()
    carriers = {eng.schedule(8, _noop), eng.schedule(12, _noop)}
    eng.schedule(3 * 4096 + 5, _noop)
    assert eng.next_external_time(carriers) == 3 * 4096 + 5


# The engine answers from the heap head when the head is external and
# scans the heap only otherwise: one test per head case.
def test_post_at_the_head_is_the_answer():
    """A post at the head is external whatever the carrier set; the
    posts queued behind it cannot be earlier."""
    eng = Engine()
    eng.post(40, _noop)
    carrier = eng.schedule(70, _noop)
    eng.post(900, _noop)
    assert eng.next_external_time({carrier}) == 40
    eng.run(until=40)
    # the carrier is the head now: the scan finds the post behind it
    assert eng.next_external_time({carrier}) == 900
    assert eng.next_external_time(set()) == 70


def test_head_carrier_with_external_entry_behind_it():
    """A carrier at the head sends the query into the scan, which
    reports the earliest live external entry, not the heap's last one."""
    eng = Engine()
    carriers = {eng.schedule(t, _noop) for t in (5, 10, 15, 20)}
    later = [eng.schedule(t, _noop) for t in (5_000, 300, 12_000)]
    eng.post(800, _noop)
    assert eng.next_external_time(carriers) == 300
    later[1].cancel()
    assert eng.next_external_time(carriers) == 800


def test_head_dead_handle_is_skipped_by_the_scan():
    """A cancelled handle at the head is neither the answer nor popped:
    the scan reports the live entry behind it, carriers or not."""
    eng = Engine()
    eng.schedule(3, _noop).cancel()
    live = eng.schedule(600, _noop)
    eng.post(2_000, _noop)
    assert eng.next_external_time(set()) == 600
    assert eng.next_external_time({live}) == 2_000
    assert eng.peek_time() == 600  # the dead head is popped only here


def test_randomized_wheel_heap_agreement():
    """Engine and reference, same scripted workload: next_external_time
    must agree at every checkpoint, for the empty carrier set and for a
    random subset of live handles."""
    for seed in range(12):
        rng = random.Random(3000 + seed)
        engines = (Engine(), HeapqEngine())
        handle_pairs = []  # (engine_handle, reference_handle)
        for _step in range(rng.randrange(10, 60)):
            op = rng.random()
            if op < 0.45:
                delay = rng.choice(
                    [0, 1, 37, 900, 4096, 8192, FAR_NS + 13, FAR_NS * 2]
                )
                handle_pairs.append(
                    tuple(eng.schedule(delay, _noop) for eng in engines)
                )
            elif op < 0.60:
                delay = rng.randrange(0, FAR_NS * 2)
                for eng in engines:
                    eng.post(delay, _noop)
            elif op < 0.75 and handle_pairs:
                pair = handle_pairs.pop(rng.randrange(len(handle_pairs)))
                for handle in pair:
                    handle.cancel()
            elif op < 0.9:
                bound = rng.randrange(0, FAR_NS)
                fired = {eng.run(until=eng.now + bound) for eng in engines}
                assert len(fired) == 1, "engines diverged while running"
                handle_pairs = [p for p in handle_pairs if p[0].alive]
            # checkpoint: plain and carrier-filtered queries agree
            engine, ref = engines
            assert engine.next_external_time(set()) == ref.next_external_time(
                set()
            ), f"seed {3000 + seed}: engines disagree"
            if handle_pairs:
                k = rng.randrange(0, len(handle_pairs) + 1)
                subset = rng.sample(handle_pairs, k)
                eset = {p[0] for p in subset}
                rset = {p[1] for p in subset}
                assert engine.next_external_time(eset) == ref.next_external_time(
                    rset
                ), f"seed {3000 + seed}: carrier-filtered disagreement"


class _ConsultProbe:
    """Stand-in quiescence leap: answers every run-loop consult with
    ``next_external_time`` (the popped entry pushed back onto the heap)
    and records ``(now, answer)``; never leaps."""

    def __init__(self, engine, carriers, rng):
        self.engine = engine
        self.carriers = carriers
        self.rng = rng
        self.next_try = -1
        self.seen = []

    def attempt(self, hi):
        eng = self.engine
        # consults at one instant never repeat: the run loop's threshold
        # moves past the advance target even when next_try lags it
        assert not self.seen or eng.now > self.seen[-1][0], "consult repeated"
        self.seen.append((eng.now, eng.next_external_time(self.carriers)))
        self.next_try = eng.now + self.rng.choice([0, 0, 300, 5_000])
        return False


def _mid_drain_script(eng, seed, log):
    """Seeded callbacks that post, schedule and cancel near, far and at
    ``now``, and query ``next_external_time`` from inside themselves, logging
    ``(now, tag, fired off the same-instant FIFO, answer)``.  Returns
    the carrier set (a fixed subset of the set-up handles)."""
    rng = random.Random(seed)
    handles = []
    budget = [300]

    def tick(tag, fifo):
        log.append((eng.now, tag, fifo, eng.next_external_time(carriers)))
        for _ in range(rng.randrange(0, 3) if budget[0] > 0 else 0):
            budget[0] -= 1
            delay = rng.choice([0, 1, 90, 700, 3_000, 4_100, 9_000, FAR_NS + 77])
            if rng.random() < 0.5:
                handles.append(eng.schedule(delay, tick, len(log), delay == 0))
            else:
                eng.post(delay, tick, -len(log), delay == 0)
        if handles and rng.random() < 0.3:
            handles.pop(rng.randrange(len(handles))).cancel()
        log.append((eng.now, tag, fifo, eng.next_external_time(carriers)))

    setup = [
        eng.schedule(rng.randrange(0, FAR_NS * 2), tick, 1_000_000 + i, False)
        for i in range(12)
    ]
    carriers = {h for h in setup if rng.random() < 0.4}
    for i in range(8):
        eng.post(rng.randrange(0, 20_000), tick, 2_000_000 + i, False)
    return carriers


def test_mid_drain_queries_match_reference():
    """``next_external_time`` while a run drains — at the run loop's
    leap consult and from inside callbacks — agrees with the reference
    holding the same pending set.

    One documented exception: inside a callback fired off the
    same-instant FIFO, the instant's already-fired entries are still
    listed there, so the engine may answer ``now`` — never later than
    the exact answer, which keeps a leap bound conservative."""
    exact_batch = early = 0
    for seed in range(10):
        engine, ref = Engine(), HeapqEngine()
        wlog, rlog = [], []
        wset = _mid_drain_script(engine, seed, wlog)
        rset = _mid_drain_script(ref, seed, rlog)
        probe = engine.leap = _ConsultProbe(engine, wset, random.Random(seed))
        engine.run()
        assert probe.seen, "the run loop never consulted the leap"
        # the reference fires everything up to each consult instant
        # (the consult sees the instant fully drained), then answers
        for now, answer in probe.seen:
            ref.run(until=now)
            assert ref.next_external_time(rset) == answer, f"seed {seed} at t={now}"
        ref.run()
        assert [w[:3] for w in wlog] == [r[:3] for r in rlog], f"seed {seed}: fire order diverged"
        for (now, tag, fifo, got), (_, _, _, exact) in zip(wlog, rlog):
            if got != exact:
                assert fifo and got == now, f"seed {seed} tag {tag}: {got} != {exact}"
                early += 1
            elif not fifo:
                exact_batch += 1
    assert exact_batch, "no callback fired off the heap queried"
