"""The discrete-event engine.

A single :class:`Engine` instance drives an entire simulated cluster: all
cores of all nodes, all NICs and all wires share one virtual clock.  The
engine knows nothing about cores or networks — higher layers schedule
plain callbacks.  Two API families exist because the callers split
cleanly into two camps:

* :meth:`Engine.schedule` / :meth:`Engine.call_soon` return an
  :class:`Event` handle that can be *cancelled* (lazy deletion — the
  queued entry is kept but skipped).  Used when the caller keeps the
  handle (sleep timers, interruptible compute slices).
* :meth:`Engine.post` / :meth:`Engine.post_soon` / :meth:`Engine.post_at`
  are the fire-and-forget fast path: no handle escapes, so no Event
  object is needed at all (the dominant case — dispatch ticks, lock
  grants, doorbell rings, wire deliveries).

The queue is a bucketed timer wheel (calendar queue): events land in
``time >> WHEEL_SHIFT`` buckets in O(1), the run loop drains one bucket
at a time, and all events in a bucket fire as one sorted batch without
re-sifting between them.  Far-future timers beyond the wheel horizon
wait in an overflow heap and migrate into the wheel as the window
slides.

``seq`` is a global monotonically increasing counter, so ties fire in
submission order and every run is bit-for-bit reproducible: events fire
in exact ``(time, seq)`` order.  The randomized fuzz in
``tests/sim/test_engine_wheel.py`` holds the wheel to that order against
a plain-``heapq`` reference engine that lives in the tests.

*Drain hooks*: callables consulted when the queue drains while some
component still claims to be waiting for progress; used by the cluster
harness to detect deadlocks instead of silently returning.
"""

from __future__ import annotations

import math
from bisect import insort
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

#: wheel bucket width is ``1 << WHEEL_SHIFT`` ns.  4096 ns holds dozens
#: of events at the hot scenarios' densities (probe cycles are 120 ns,
#: idle re-polls 2000 ns) — big enough to amortize the per-bucket
#: bookkeeping even on sparse timelines, small enough that the in-bucket
#: sort stays tiny (timsort on near-sorted runs).  Empirically 12 beats
#: 10/11/13 across dense and sparse event spreads.
WHEEL_SHIFT = 12
#: number of wheel slots; the horizon is ``WHEEL_SLOTS << WHEEL_SHIFT``
#: (~1.05 ms).  Timer quanta (1 ms) fit inside the window; retransmit
#: timeouts overflow to the heap and migrate in as the window slides —
#: rare enough that the heappush there is noise.
WHEEL_SLOTS = 256
WHEEL_MASK = WHEEL_SLOTS - 1

#: leap-consult threshold of runs that never consult the leap: later
#: than any virtual time a run reaches
_NEVER = 1 << 62

class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation substrate."""


class DeadlockError(SimulationError):
    """Raised when the event queue drains while actors are still blocked."""


class Event:
    """Handle for a scheduled callback.

    Queued as the payload of a ``(time, seq, None, event)`` entry;
    ``cancel()`` marks the event dead and the engine skips dead events
    when they surface.  ``_engine`` is set while the event is queued and
    cancellable, so cancellation can maintain the engine's O(1) live
    count.  A fired or cancelled handle is simply dropped.
    """

    __slots__ = ("time", "seq", "fn", "args", "alive", "_engine")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.alive = True
        self._engine: Optional["Engine"] = None

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if self.alive:
            self.alive = False
            eng = self._engine
            if eng is not None:
                self._engine = None
                eng._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.alive else "dead"
        return f"<Event t={self.time} seq={self.seq} {state} {getattr(self.fn, '__name__', self.fn)!r}>"


def _coerce_delay(delay: Any) -> int:
    """Validate and round a non-int delay (slow path, shared by schedule
    and post).  Rejects negative and non-finite values loudly — a ``nan``
    or ``inf`` delay silently mis-rounding would corrupt the virtual
    clock far from the bug that produced it."""
    if isinstance(delay, float) and not math.isfinite(delay):
        raise ValueError(f"non-finite delay {delay!r}")
    if delay < 0:
        raise ValueError(f"negative delay {delay!r}")
    d = int(delay)
    return d if d == delay or d > delay else d + 1


class Engine:
    """Deterministic discrete-event loop with a nanosecond virtual clock:
    a timer wheel with O(1) insert and batched bucket drains.

    Layout
    ------
    ``_slots[time >> WHEEL_SHIFT & WHEEL_MASK]`` holds every queued entry
    whose bucket index falls inside the current window
    ``[_wpos, _wlimit)`` (``_wlimit - _wpos`` is always ``WHEEL_SLOTS``,
    so masked slots never alias).  ``_bidx`` is a sorted list of the
    *absolute* indices of non-empty buckets: the next non-empty bucket
    is ``_bidx[0]``, and an insert only touches it on a bucket's
    empty→non-empty transition (one ``len()`` check otherwise — cheaper
    than any bitmask arithmetic at Python speed).  Entries at or beyond
    ``_wlimit`` wait in the ``_over`` heap and migrate into the wheel as
    the window slides (every overflow entry's time is >= every wheel
    entry's time, so migration never reorders).

    Entries are plain tuples — ``(time, seq, fn, args)`` for
    fire-and-forget posts (no carrier object at all), and
    ``(time, seq, None, event)`` for cancellable handles.  Three insert
    tiers, cheapest first:

    * ``time == now`` → ``_nowq``, a plain FIFO: these are the
      same-instant events (``post_soon``/``call_soon`` and zero-delay
      posts) and they fire *as a batch with no ordering work at all*.
      This is sound because ``seq`` is globally monotonic and every
      at-``now`` arrival during an instant lands here — so anything
      already queued at this time has a smaller ``seq`` than every
      FIFO entry, and the FIFO itself is in ``seq`` order by
      construction.
    * bucket currently being drained (``time <= _aend``, one compare —
      the dominant case: dispatch chains step ~100 ns inside 4096 ns
      buckets) → ``heappush`` straight into the live bucket heap: the
      ordering cost is paid on a tiny per-bucket heap, only for entries
      that actually interleave with the drain.
    * any other in-window bucket → bare ``list.append`` (no ordering
      work); the bucket is ``heapify``-ed once when its drain begins.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._live: int = 0
        self._running = False
        #: number of callbacks actually executed (dead events excluded)
        self.fired: int = 0
        #: callables polled when the queue drains; if any returns True the
        #: engine keeps running (the hook is expected to have scheduled
        #: new work), otherwise :meth:`run` returns.
        self.drain_hooks: list[Callable[[], bool]] = []
        #: callables that report the number of actors still blocked waiting
        #: for a simulation event; consulted on drain for deadlock detection.
        self.blocked_reporters: list[Callable[[], int]] = []
        #: quiescence-leap controller (:class:`repro.core.leap
        #: .QuiescenceLeap`), installed by PIOMan on eligible worlds;
        #: the run loop consults it at the first clock advance strictly
        #: past its ``next_try`` instant (read when a run starts).
        self.leap = None
        #: the wheel: one entry list per bucket slot (see Layout)
        self._slots: list[list[tuple]] = [[] for _ in range(WHEEL_SLOTS)]
        #: sorted absolute indices of non-empty buckets
        self._bidx: list[int] = []
        #: absolute bucket index of the window start (<= bucket of the
        #: next undrained entry; never ahead of ``now``'s bucket while
        #: callers can insert)
        self._wpos: int = 0
        #: absolute bucket index one past the window end (exclusive);
        #: maintained as ``_wpos + WHEEL_SLOTS``
        self._wlimit: int = WHEEL_SLOTS
        #: overflow heap for entries beyond the window
        self._over: list[tuple] = []
        #: FIFO of entries whose time equals ``now`` (drained before the
        #: clock advances; folded back into the wheel if one survives
        #: past a run, e.g. a post_soon issued between runs)
        self._nowq: list[tuple] = []
        #: last timestamp covered by the actively draining bucket, else
        #: -1.  Because callers can only schedule at ``time >= now`` and
        #: ``now`` sits inside the active bucket while draining,
        #: ``time <= _aend`` is a complete one-compare test for "lands in
        #: the live bucket" — the dominant insert (dispatch chains step
        #: ~100 ns inside 4096 ns buckets), reduced to one C heappush.
        self._aend: int = -1
        #: the live bucket list itself while draining (alias of
        #: its slot list in ``_slots``), else None
        self._abuc: Optional[list] = None

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self.schedule(time - self.now, fn, *args)

    def run_until_idle(self) -> int:
        """Alias of :meth:`run` with no bound — runs to a fully drained queue."""
        return self.run()

    def pending(self) -> int:
        """Number of live events still queued (O(1))."""
        return self._live

    def blocked_actors(self) -> int:
        """Actors currently blocked, summed over the registered reporters.

        Nonzero at drain means deadlock in a closed world; in a sharded
        run (:mod:`repro.cluster.shard`) a shard's local drain with
        blocked actors is routine — they wait on cross-shard frames — so
        the coordinator sums this across shards *after* the global drain
        instead of letting each shard raise locally.
        """
        return sum(r() for r in self.blocked_reporters)

    def _drained(self) -> Optional[int]:
        """Queue is empty: poll drain hooks, detect deadlock.  Returns
        the final virtual time to report, or None to keep running."""
        if any(hook() for hook in self.drain_hooks):
            return None
        blocked = self.blocked_actors()
        if blocked:
            raise DeadlockError(
                f"event queue drained at t={self.now} ns with "
                f"{blocked} actor(s) still blocked"
            )
        return self.now

    def _insert(self, e: tuple) -> None:
        """Queue an entry with ``now < time`` outside the active bucket:
        bare append into its window bucket (registering occupancy on the
        empty→non-empty flip) or heappush into the overflow heap."""
        idx = e[0] >> WHEEL_SHIFT
        if idx < self._wlimit:
            lst = self._slots[idx & WHEEL_MASK]
            lst.append(e)
            if len(lst) == 1:
                insort(self._bidx, idx)
        else:
            heappush(self._over, e)

    def _enqueue(self, e: tuple) -> None:
        """Queue an entry with ``now < time`` in whichever tier holds it:
        heappush into the live bucket while one drains and the entry
        falls in it (a bare append there would break its heap order),
        :meth:`_insert` otherwise."""
        if e[0] <= self._aend:
            heappush(self._abuc, e)
        else:
            self._insert(e)

    # ------------------------------------------------------------------
    # scheduling — cancellable handles
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now.

        ``delay`` must be non-negative and finite; fractional delays are
        rounded up so a nonzero delay never becomes zero.
        """
        if type(delay) is not int:
            delay = _coerce_delay(delay)
        elif delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args)
        ev._engine = self
        self._live += 1
        if delay == 0:
            self._nowq.append((time, seq, None, ev))
        elif time <= self._aend:
            heappush(self._abuc, (time, seq, None, ev))
        else:
            self._insert((time, seq, None, ev))
        return ev

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time (after pending ties)."""
        seq = self._seq
        self._seq = seq + 1
        ev = Event(self.now, seq, fn, args)
        ev._engine = self
        self._live += 1
        self._nowq.append((ev.time, seq, None, ev))
        return ev

    # ------------------------------------------------------------------
    # scheduling — fire-and-forget fast path (no handle, no carrier)
    # ------------------------------------------------------------------
    def post(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no Event object."""
        if type(delay) is not int:
            delay = _coerce_delay(delay)
        elif delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        if delay == 0:
            self._nowq.append((time, seq, fn, args))
        elif time <= self._aend:
            heappush(self._abuc, (time, seq, fn, args))
        else:
            self._insert((time, seq, fn, args))

    def post_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`, with its checks and its
        rounding: a fractional time fires at the next whole ns."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        if type(time) is not int:
            time = self.now + _coerce_delay(time - self.now)
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        if time == self.now:
            self._nowq.append((time, seq, fn, args))
        elif time <= self._aend:
            heappush(self._abuc, (time, seq, fn, args))
        else:
            self._insert((time, seq, fn, args))

    def post_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`call_soon`."""
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        self._nowq.append((self.now, seq, fn, args))

    # ------------------------------------------------------------------
    # window machinery
    # ------------------------------------------------------------------
    def _retreat_window(self) -> None:
        """Pull the window start back to ``now``'s bucket.

        Only legal while the wheel itself is empty (draining dead-only
        buckets can leave the cursor ahead of ``now``; new inserts must
        land at non-aliasing slots, so the window must restart at or
        before ``now`` whenever callers regain control with ``now``
        behind the cursor)."""
        w = self.now >> WHEEL_SHIFT
        if self._wpos > w:
            self._wpos = w
            self._wlimit = w + WHEEL_SLOTS

    def _flush_nowq(self) -> None:
        """Fold same-instant FIFO entries back into the wheel.

        Only needed when an entry posted at ``now`` survives past the
        instant it was posted in — i.e. it arrived outside a run (setup
        code, between bounded runs) or a callback raised mid-instant.
        The wheel may then already hold ties at the same time with
        *smaller* seqs, so the cheap FIFO ordering no longer suffices
        and the entries must merge through the normal (time, seq) path.
        """
        nq = self._nowq
        for e in nq:
            idx = e[0] >> WHEEL_SHIFT
            if idx < self._wlimit:
                lst = self._slots[idx & WHEEL_MASK]
                lst.append(e)
                if len(lst) == 1:
                    insort(self._bidx, idx)
            else:  # pragma: no cover - now is always inside the window
                heappush(self._over, e)
        nq.clear()

    def next_external_time(self, carriers: set) -> Optional[int]:
        """Earliest live queued event that is not one of ``carriers``.

        ``carriers`` is a set of cancellable :class:`Event` handles the
        quiescence leap has classified as elidable periodic idle
        carriers; everything else — fire-and-forget posts, other
        handles — is *external* and bounds the leap.  Returns None when
        no external event is queued.  Read-only: never pops or reorders
        queue state.

        Walks the engine tiers cheapest-first without scanning past the
        answer: the same-instant FIFO (any live non-carrier entry bounds
        the leap at its post instant), then the occupied-bucket index in
        time order — the first bucket containing an external entry holds
        the minimum, because inter-bucket order is time order — and only
        if the whole wheel is carrier-only, the overflow heap (every
        overflow time is >= every wheel time).

        Exact between runs and while a bucket drains, at the run loop's
        leap consult (the FIFO is empty there) and inside callbacks
        fired off a bucket.  Inside a callback fired off the FIFO, the
        instant's already-fired entries are still listed, so the answer
        may be ``now`` — never later than the exact one.
        """
        for e in self._nowq:
            if e[2] is None:
                ev = e[3]
                if not ev.alive or ev in carriers:
                    continue
            return e[0]
        slots = self._slots
        for pos in self._bidx:
            best = None
            for e in slots[pos & WHEEL_MASK]:
                if e[2] is None:
                    ev = e[3]
                    if not ev.alive or ev in carriers:
                        continue
                if best is None or e[0] < best:
                    best = e[0]
            if best is not None:
                return best
        best = None
        for e in self._over:
            if e[2] is None:
                ev = e[3]
                if not ev.alive or ev in carriers:
                    continue
            if best is None or e[0] < best:
                best = e[0]
        return best

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is drained.

        Skims dead entries off the front exactly like the run loop would.
        """
        if self._nowq:
            self._flush_nowq()
        slots = self._slots
        bidx = self._bidx
        while bidx:
            pos = bidx[0]
            lst = slots[pos & WHEEL_MASK]
            if len(lst) > 1:
                heapify(lst)
            while lst:
                e = lst[0]
                if e[2] is None and not e[3].alive:
                    heappop(lst)
                    continue
                return e[0]
            del bidx[0]
        over = self._over
        while over:
            e = over[0]
            if e[2] is None and not e[3].alive:
                heappop(over)
                continue
            return e[0]
        return None

    def step(self) -> bool:
        """Run the single next live event.  Returns False if none exist."""
        t = self.peek_time()
        if t is None:
            return False
        # peek_time left the next live entry at the top of its
        # (heapified) bucket, or at the overflow head if the wheel is
        # empty.
        bidx = self._bidx
        if bidx:
            lst = self._slots[bidx[0] & WHEEL_MASK]
            e = heappop(lst)
            if not lst:
                del bidx[0]
        else:
            e = heappop(self._over)
        self.now = e[0]
        self.fired += 1
        self._live -= 1
        fn = e[2]
        if fn is not None:
            fn(*e[3])
        else:
            ev = e[3]
            ev._engine = None
            ev.fn(*ev.args)
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` ns is reached, or
        ``max_events`` callbacks fired.  Returns the virtual time.

        Draining with blocked actors raises :class:`DeadlockError` — a
        simulation that silently stops with threads still waiting is
        almost always a bug in the caller's protocol.  An ``until``
        before ``now`` raises :class:`ValueError`: the clock never moves
        backwards.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        if until is not None and until < self.now:
            raise ValueError(f"cannot run until {until} ns: the clock is at {self.now} ns")
        self._running = True
        SHIFT = WHEEL_SHIFT
        MASK = WHEEL_MASK
        SLOTS = WHEEL_SLOTS
        slots = self._slots
        over = self._over
        hi = until
        budget = max_events
        nfired = 0
        ndone = 0  # deferred _live decrements, flushed once in finally
        cur = self.now  # mirror of self.now: skip the store on time ties
        # Quiescence leap: consulted at the first clock advance strictly
        # past ``ntry`` (see the drain loop), never on budgeted runs — a
        # leap fires many events per call, which a max_events bound must
        # count one at a time.  Without a leap the check is one compare
        # against a time no run reaches.
        lp = self.leap
        ntry = _NEVER if lp is None or budget is not None else lp.next_try
        bidx = self._bidx
        if self._nowq:
            # entries posted at ``now`` outside a run may tie with older
            # wheel entries: merge them through the (time, seq) path
            self._flush_nowq()
        nowq = self._nowq
        try:
            while True:
                if budget is not None and budget <= 0:
                    return self.now
                if not bidx:
                    if over:
                        # wheel empty: jump the window to the overflow head
                        t0 = over[0][0]
                        if hi is not None and t0 > hi:
                            self.now = cur = hi
                            return hi
                        idx0 = t0 >> SHIFT
                        self._wpos = idx0
                        nl = idx0 + SLOTS
                        self._wlimit = nl
                        while over and over[0][0] >> SHIFT < nl:
                            e = heappop(over)
                            i0 = e[0] >> SHIFT
                            lst = slots[i0 & MASK]
                            lst.append(e)
                            if len(lst) == 1:
                                insort(bidx, i0)
                        continue
                    # fully drained: the cursor may sit ahead of ``now``
                    # after dead-only buckets; restart the window where
                    # the drain hooks (and post-run callers) will insert
                    self._retreat_window()
                    t = self._drained()
                    if t is None:
                        if nowq:
                            # a drain hook posted at ``now``: merge
                            self._flush_nowq()
                        continue
                    return t
                pos = bidx[0]
                bstart = pos << SHIFT
                if hi is not None and bstart > hi:
                    # every queued event is past the bound.  The window
                    # start only ever committed to buckets <= hi's, so
                    # inserts after this return cannot alias.
                    self.now = cur = hi
                    return hi
                if pos != self._wpos:
                    # commit the window start and migrate any overflow
                    # the longer horizon now covers
                    self._wpos = pos
                    nl = pos + SLOTS
                    if nl > self._wlimit:
                        self._wlimit = nl
                        while over and over[0][0] >> SHIFT < nl:
                            e = heappop(over)
                            i0 = e[0] >> SHIFT
                            lst = slots[i0 & MASK]
                            lst.append(e)
                            if len(lst) == 1:
                                insort(bidx, i0)
                careful = budget is not None or (
                    hi is not None and bstart + (1 << SHIFT) > hi
                )
                # ---- drain bucket ``pos`` in place as a tiny heap ----
                # ``_aend``/``_abuc`` redirect the bucket's own
                # same-bucket arrivals to heappush straight into
                # ``batch``; at-``now`` arrivals go to the ``nowq`` FIFO
                # instead.
                batch = slots[pos & MASK]
                if len(batch) > 1:
                    heapify(batch)
                self._abuc = batch
                self._aend = bstart + (1 << SHIFT) - 1
                while True:
                    # ---- drain the instant: at-``now`` arrivals fire
                    # FIFO, which IS (time, seq) order (see class doc) —
                    # unless older ties still sit at the batch head.
                    # Checked at the top so every pop path (fires AND
                    # dead-entry skims) reconsiders the FIFO before
                    # advancing past the instant.
                    if nowq and not (batch and batch[0][0] == cur):
                        i = 0
                        try:
                            while i < len(nowq):
                                e = nowq[i]
                                efn = e[2]
                                if efn is None:
                                    ev = e[3]
                                    if not ev.alive:
                                        i += 1
                                        continue
                                if budget is not None:
                                    if budget == 0:
                                        del nowq[:i]
                                        return self.now
                                    budget -= 1
                                i += 1
                                nfired += 1
                                ndone += 1
                                if efn is not None:
                                    efn(*e[3])
                                else:
                                    ev._engine = None
                                    ev.fn(*ev.args)
                        except BaseException:
                            # drop the fired prefix (the raiser included:
                            # it counts as fired and must not refire on
                            # resume)
                            del nowq[:i]
                            raise
                        nowq.clear()
                        continue  # instant callbacks may have refilled batch
                    if not batch:
                        break
                    if careful:
                        # bounded drain: skim dead handles first, apply
                        # the bounds against a live head, count only
                        # fired events against budget
                        e0 = batch[0]
                        if e0[2] is None and not e0[3].alive:
                            heappop(batch)
                            continue
                        if hi is not None and e0[0] > hi:
                            self.now = cur = hi
                            return hi
                        if budget is not None:
                            if budget == 0:
                                return self.now
                            budget -= 1
                    t, s, fn, a = heappop(batch)
                    if t != cur and (fn is not None or a.alive):
                        # the clock advances (entering a new bucket
                        # included): the one quiescence-leap consult
                        # site.  The same-instant FIFO is empty here (it
                        # drains before the batch head can move past
                        # ``cur``).  The popped entry goes back first so
                        # the leap's bound sees it, and the threshold
                        # moves to at least ``t`` so a consult that
                        # leaves the entry at the head cannot repeat.
                        if t > ntry:
                            heappush(batch, (t, s, fn, a))
                            lp.attempt(hi)
                            cur = self.now
                            ntry = max(lp.next_try, t)
                            continue
                        self.now = cur = t
                    if fn is not None:
                        nfired += 1
                        ndone += 1
                        fn(*a)
                    elif a.alive:
                        nfired += 1
                        ndone += 1
                        a._engine = None
                        a.fn(*a.args)
                self._aend = -1
                self._abuc = None
                del bidx[0]
        finally:
            self.fired += nfired
            if ndone:
                self._live -= ndone
            self._aend = -1
            self._abuc = None
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self.now}ns pending={self.pending()} fired={self.fired}>"
