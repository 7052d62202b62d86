"""Event-order equivalence and unit tests.

The engine must realize the exact ``(time, seq)`` total order that a
plain binary heap defines: the randomized fuzz drives the engine and the
test-only :class:`~tests.sim.refengine.HeapqEngine` with identical
workloads — every insert call, same-tick ties, cancellable handles at
delay 0 and far in the future, cancellation mid-drain — and asserts
identical fire order, ``now``, ``fired`` and ``pending()`` after every
instant and every ``until`` bound.  The unit tests pin down the
behaviours the order rests on: far-future and sparse timelines, the
same-instant FIFO (within a run, between runs and across a raise),
bounded runs, and re-queues at explicit seqs while a run drains.
"""

import random

import pytest

from repro.sim.engine import Engine

from .refengine import HeapqEngine

#: ~1 ms: far-future timers (retransmit timeouts, timer quanta)
FAR_NS = 1 << 20


def test_engine_has_no_core_selector():
    """One event core: the old ``core=`` selector is gone, not ignored."""
    assert Engine().pending() == 0
    with pytest.raises(TypeError):
        Engine(core="heap")


# ---------------------------------------------------------------------------
# randomized equivalence fuzz
# ---------------------------------------------------------------------------
class _Driver:
    """One scripted workload, replayable against either engine.

    Records every fired (tag, now) pair; the script itself only draws
    from its own Random instance, so two replays make identical calls.
    """

    def __init__(self, eng, seed):
        self.eng = eng
        self.rng = random.Random(seed)
        self.log = []
        self.handles = {}
        self.n = 0

    def _fire(self, tag):
        self.log.append((tag, self.eng.now))
        # nested activity from inside callbacks: the hard case for
        # same-instant ordering and inserts that interleave with the drain
        r = self.rng.random()
        if r < 0.25:
            self._submit()
        if r > 0.9:
            self._cancel_one()

    def _submit(self):
        eng = self.eng
        rng = self.rng
        tag = self.n
        self.n += 1
        kind = rng.randrange(6)
        if kind == 0:
            eng.post_soon(self._fire, tag)
        elif kind == 1:
            eng.post(rng.choice([0, 1, 7, 120, 2000, 4096, 5000]), self._fire, tag)
        elif kind == 2:
            eng.post_at(eng.now + rng.randrange(0, 3 * 4096), self._fire, tag)
        elif kind == 3:
            self.handles[tag] = eng.schedule(rng.randrange(0, 9000), self._fire, tag)
        elif kind == 4:
            self.handles[tag] = eng.schedule(0, self._fire, tag)
        else:
            # far-future: behind everything else queued
            self.handles[tag] = eng.schedule(
                rng.randrange(FAR_NS, 3 * FAR_NS), self._fire, tag
            )

    def _cancel_one(self):
        if self.handles:
            k = self.rng.choice(sorted(self.handles))
            self.handles.pop(k).cancel()

    def seed_work(self, count):
        for _ in range(count):
            self._submit()
        for _ in range(count // 8):
            self._cancel_one()

    def state(self):
        eng = self.eng
        return (tuple(self.log), eng.now, eng.fired, eng.pending())


@pytest.mark.parametrize("seed", [1, 7, 42, 1234, 99999])
def test_fuzz_wheel_heap_equivalence_full_run(seed):
    states = []
    for eng in (Engine(), HeapqEngine()):
        d = _Driver(eng, seed)
        d.seed_work(120)
        d.eng.run()
        states.append(d.state())
    assert states[0] == states[1]


@pytest.mark.parametrize("seed", [3, 17, 2718])
def test_fuzz_equivalence_stepwise(seed):
    """Running one instant at a time (``until`` = the next event's time)
    must agree with the reference after *every* instant."""
    dw = _Driver(Engine(), seed)
    dh = _Driver(HeapqEngine(), seed)
    dw.seed_work(60)
    dh.seed_work(60)
    while True:
        t = dw.eng.peek_time()
        assert t == dh.eng.peek_time()
        if t is None:
            break
        assert dw.eng.run(until=t) == dh.eng.run(until=t) == t
        assert dw.state() == dh.state()


@pytest.mark.parametrize("seed", [5, 23, 555])
def test_fuzz_equivalence_bounded_runs(seed):
    """Runs to random ``until`` bounds stay in lockstep, including bounds
    that fall between two queued events and fractional ones."""
    dw = _Driver(Engine(), seed)
    dh = _Driver(HeapqEngine(), seed)
    dw.seed_work(100)
    dh.seed_work(100)
    rng = random.Random(seed ^ 0xBEEF)
    for _ in range(60):
        bound = dw.eng.now + rng.randrange(1, 2 * 4096)
        if rng.random() < 0.3:
            bound += rng.random()
        tw = dw.eng.run(until=bound)
        th = dh.eng.run(until=bound)
        assert tw == th == int(bound)
        assert dw.state() == dh.state()
        if not dw.eng.pending():
            break
    dw.eng.run()
    dh.eng.run()
    assert dw.state() == dh.state()


def test_fuzz_cancellation_mid_bucket():
    """Cancel queued handles mid-drain: dead entries must be skipped
    identically by both engines."""
    for seed in (11, 13):
        states = []
        for eng in (Engine(), HeapqEngine()):
            log = []
            handles = []

            def cb(tag, _log=log, _eng=eng, _handles=handles):
                _log.append((tag, _eng.now))
                # cancel a later tie / near neighbour mid-drain
                if _handles:
                    _handles.pop().cancel()

            rng = random.Random(seed)
            for tag in range(80):
                t = rng.randrange(0, 3 * 4096)
                if rng.random() < 0.5:
                    handles.append(eng.schedule(t, cb, tag))
                else:
                    eng.post(t, cb, tag)
            eng.run()
            states.append((tuple(log), eng.now, eng.fired, eng.pending()))
        assert states[0] == states[1]


# ---------------------------------------------------------------------------
# engine units
# ---------------------------------------------------------------------------
def test_far_future_overflow_and_migration():
    """A far-future timer queued first still fires after a near post."""
    eng = Engine()
    seen = []
    eng.schedule(5 * FAR_NS, seen.append, "far")
    eng.post(10, seen.append, "near")
    eng.run()
    assert seen == ["near", "far"]
    assert eng.now == 5 * FAR_NS


def test_window_slides_across_many_buckets():
    eng = Engine()
    seen = []
    # sparse events, ~12 us apart over ~4 ms, in time order
    times = [i * 4096 + 17 for i in range(1024) if i % 3 == 0]
    for t in times:
        eng.post_at(t, seen.append, t)
    eng.run()
    assert seen == times


def test_same_instant_fifo_chains():
    """post_soon chains inside one instant fire in submission order and
    never advance the clock."""
    eng = Engine()
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 5:
            eng.post_soon(chain, depth + 1)

    eng.post(100, chain, 0)
    eng.post(100, seen.append, "tie")  # larger seq than chain's post
    eng.run()
    assert seen == [0, "tie", 1, 2, 3, 4, 5]
    assert eng.now == 100


def test_nowq_survives_between_runs():
    """A post_soon issued outside run() merges by (time, seq) with older
    heap entries at the same time (here: the tie left queued by a
    callback that raised mid-instant)."""
    eng = Engine()
    seen = []

    def boom():
        seen.append("a")
        raise RuntimeError("boom")

    eng.post(50, boom)
    eng.post(50, seen.append, "b")
    with pytest.raises(RuntimeError):
        eng.run()
    assert seen == ["a"] and eng.now == 50
    eng.post_soon(seen.append, "c")  # seq > b's: must fire after b
    eng.run()
    assert seen == ["a", "b", "c"]


def test_until_cuts_bucket_in_half():
    eng = Engine()
    seen = []
    for t in (100, 200, 300, 400):
        eng.post_at(t, seen.append, t)
    assert eng.run(until=250) == 250
    assert seen == [100, 200]
    assert eng.pending() == 2
    eng.run()
    assert seen == [100, 200, 300, 400]


def test_enqueue_mid_drain_keeps_heap_order():
    """``_enqueue`` (the quiescence leap's carrier re-arm) while a run
    drains: entries at explicit seqs merge by (time, seq) with everything
    already queued, before, between and after it."""
    eng = Engine()
    seen = []
    times = [300, 400, 500, 600, 700, 800, 900]
    for t in times:
        eng.post_at(t, seen.append, t)
    rearmed = [350, 5_000, 250, FAR_NS + 9]

    def rearm():
        for t in rearmed:
            seq = eng._seq
            eng._seq = seq + 1
            eng._live += 1
            eng._enqueue((t, seq, seen.append, (t,)))

    eng.post_at(200, rearm)
    eng.run()
    assert seen == sorted(times + rearmed)
    assert eng.pending() == 0


def test_exception_keeps_remainder_queued_wheel():
    eng = Engine()
    seen = []

    def boom():
        raise RuntimeError("boom")

    eng.post(1, seen.append, "a")
    eng.post(2, boom)
    eng.post(3, seen.append, "b")
    with pytest.raises(RuntimeError):
        eng.run()
    assert seen == ["a"]
    assert eng.fired == 2  # the raiser counts as fired
    eng.run()  # resumable: the remainder is intact
    assert seen == ["a", "b"]


def test_exception_mid_instant_keeps_fifo_remainder():
    eng = Engine()
    seen = []

    def boom():
        raise RuntimeError("boom")

    def kick():
        eng.post_soon(seen.append, "x")
        eng.post_soon(boom)
        eng.post_soon(seen.append, "y")

    eng.post(5, kick)
    with pytest.raises(RuntimeError):
        eng.run()
    assert seen == ["x"]
    eng.run()
    assert seen == ["x", "y"]


def test_peek_time_inside_a_fifo_callback_refires_nothing():
    """``peek_time`` only reads the same-instant FIFO: called from a
    callback the FIFO fired, it must not re-queue the instant's fired
    entries (they would fire twice)."""
    eng = Engine()
    seen = []

    def a():
        seen.append("a")
        assert eng.peek_time() == 5

    def kick():
        eng.post_soon(a)
        eng.post_soon(seen.append, "b")

    eng.post(5, kick)
    eng.post(9, seen.append, "c")
    eng.run()
    assert seen == ["a", "b", "c"]
    assert eng.fired == 4 and eng.pending() == 0


# ---------------------------------------------------------------------------
# in-place continuation (Engine.claim)
# ---------------------------------------------------------------------------
def _claim_at(eng, at, t, n=1):
    """Run ``eng`` and call ``claim(t, n)`` from a callback at ``at``;
    returns the answer and the clock right after it."""
    got = []

    def probe():
        got.append(eng.claim(t, n))
        got.append(eng.now)

    eng.post_at(at, probe)
    eng.run()
    return got


def test_claim_moves_the_clock_and_spends_the_seqs_it_runs():
    eng = Engine()
    assert _claim_at(eng, 10, 25, 2) == [True, 25]
    assert eng.now == 25 and eng._seq == 3  # the probe's seq, then two
    assert eng.fired == 3 and eng.claimed == 2 and eng.pending() == 0


def test_claim_refuses_outside_a_run():
    eng = Engine()
    assert eng.claim(0) is False
    eng.post(5, lambda: None)
    eng.run()
    assert eng.claim(5) is False and eng.claim(9) is False
    assert eng.now == 5 and eng._seq == 1 and eng.claimed == 0


def test_claim_refuses_past_until():
    eng = Engine()
    got = []

    def probe():
        got.append(eng.claim(101))
        got.append(eng.claim(100))

    eng.post(10, probe)
    assert eng.run(until=100) == 100
    assert got == [False, True] and eng.claimed == 1


class _Leap:
    """A leap that never leaps: it only sets the consult threshold."""

    def __init__(self, next_try):
        self.next_try = next_try
        self.attempts = []

    def attempt(self, hi):
        self.attempts.append(hi)
        self.next_try = 1 << 40


def test_claim_refuses_past_the_leap_threshold():
    """The run loop consults the leap at the first clock advance past
    ``next_try``; a claim must not carry the clock over that point."""
    eng = Engine()
    eng.leap = _Leap(50)
    got = []

    def probe():
        got.append(eng.claim(51))
        got.append(eng.claim(50))

    eng.post(10, probe)
    eng.post(60, lambda: None)
    eng.run()
    assert got == [False, True]
    assert eng.leap.attempts == [None]  # consulted once, at 60


def test_claim_refuses_behind_a_pending_same_instant_entry():
    eng = Engine()
    got = []

    def probe():
        eng.post_soon(lambda: None)
        got.append(eng.claim(eng.now))
        got.append(eng.claim(eng.now + 5))

    def chain():
        eng.post_soon(probe)
        eng.post_soon(got.append, "tail")

    eng.post(10, probe)
    eng.post(20, chain)
    eng.run()
    assert got == [False, False, False, False, "tail"]
    assert eng.claimed == 0


def test_claim_refuses_behind_a_heap_entry_at_or_before_t():
    eng = Engine()
    got = []

    def probe():
        got.append(eng.claim(30))  # a live entry at 30 is older
        got.append(eng.claim(29))

    eng.post(10, probe)
    eng.post(30, lambda: None)
    eng.run()
    assert got == [False, True]
    dead = Engine()
    dead.schedule(30, lambda: None).cancel()
    assert _claim_at(dead, 10, 30) == [False, 10]  # a dead one too


def test_claim_refuses_a_fractional_time():
    """A post rounds a fractional time up to a whole ns; a claim leaves
    that to the post instead of moving the clock to a float."""
    eng = Engine()
    assert _claim_at(eng, 10, 12.5) == [False, 10]
    assert eng.claimed == 0


def test_claim_runs_in_place_after_a_fifo_callback():
    """The FIFO drain pops each entry before it fires, so the last entry
    of an instant sees no pending tie and may claim."""
    eng = Engine()
    got = []

    def last():
        got.append(eng.claim(eng.now + 3))

    def kick():
        eng.post_soon(got.append, "first")
        eng.post_soon(last)

    eng.post(5, kick)
    eng.run()
    assert got == ["first", True] and eng.now == 8


class _Actors:
    """Random actors that run steps, wait on grants and make noise.

    With ``in_place`` each actor runs its next step (or a grant and the
    step it posts, ``n=2``) in place whenever ``Engine.claim`` allows;
    otherwise, and always on the reference engine, it posts.  One shared
    Random decides everything, so any difference in firing order
    changes every later draw.
    """

    def __init__(self, eng, seed, in_place, steps=25):
        self.eng = eng
        self.rng = random.Random(seed)
        self.claim = eng.claim if in_place else (lambda t, n=1: False)
        self.steps = steps
        self.log = []
        self.handles = []
        self.posted = 0

    def start(self, nactors):
        for actor in range(nactors):
            self.eng.post(self.rng.choice([0, 0, 4, 9]), self.step, actor, 0)

    def step(self, actor, k):
        eng = self.eng
        rng = self.rng
        while True:
            self.log.append((eng.now, actor, k))
            if k == self.steps:
                return
            r = rng.random()
            if r < 0.2:
                eng.post(rng.choice([0, 1, 5, 40]), self.noise, actor)
            elif r < 0.3:
                self.handles.append(eng.schedule(rng.randrange(0, 60), self.noise, actor))
            elif r < 0.4 and self.handles:
                self.handles.pop(rng.randrange(len(self.handles))).cancel()
            d = rng.choice([0, 0, 1, 3, 10, 25])
            k += 1
            if rng.random() < 0.3:
                # a grant at ``d`` that resumes the actor at once
                if self.claim(eng.now + d, 2):
                    self.log.append((eng.now, actor, "grant"))
                    continue
                self.posted += 1
                eng.post(d, self.grant, actor, k)
                return
            if self.claim(eng.now + d):
                continue
            self.posted += 1
            eng.post(d, self.step, actor, k)
            return

    def grant(self, actor, k):
        eng = self.eng
        self.log.append((eng.now, actor, "grant"))
        if self.claim(eng.now):
            self.step(actor, k)
        else:
            eng.post_soon(self.step, actor, k)

    def noise(self, actor):
        eng = self.eng
        self.log.append((eng.now, actor, "noise"))
        if self.rng.random() < 0.3:
            eng.post_soon(self.log.append, (eng.now, actor, "soon"))

    def state(self):
        eng = self.eng
        return (tuple(self.log), eng.now, eng.fired, eng.pending())


@pytest.mark.parametrize("seed", [2, 19, 404, 8128])
def test_in_place_fuzz_matches_the_posting_reference(seed):
    """Running continuations in place whenever ``claim`` allows gives
    the same ``(time, actor, step)`` stream, ``fired`` and ``now`` as
    posting every one of them on the reference engine."""
    runs = []
    for eng, in_place in ((Engine(), True), (HeapqEngine(), False)):
        a = _Actors(eng, seed, in_place)
        a.start(6)
        eng.run()
        runs.append(a)
    fast, ref = runs
    assert fast.state() == ref.state()
    assert 0 < fast.eng.claimed and fast.posted < ref.posted  # both paths ran


@pytest.mark.parametrize("seed", [7, 61, 977])
def test_in_place_fuzz_matches_under_until_bounds(seed):
    """The same, run to random ``until`` bounds: a claim never carries
    the clock past the bound, and the two engines agree after every
    run."""
    fast = _Actors(Engine(), seed, True)
    ref = _Actors(HeapqEngine(), seed, False)
    fast.start(5)
    ref.start(5)
    bounds = random.Random(seed ^ 0x5EED)
    while fast.eng.pending():
        bound = fast.eng.now + bounds.randrange(0, 40)
        end = fast.eng.run(until=bound)
        assert end == ref.eng.run(until=bound)
        assert end == bound or not fast.eng.pending()  # or drained first
        assert fast.state() == ref.state()
    assert not ref.eng.pending()
    assert fast.eng.claimed > 0
