"""The discrete-event engine.

A single :class:`Engine` instance drives an entire simulated cluster: all
cores of all nodes, all NICs and all wires share one virtual clock.  The
engine knows nothing about cores or networks — higher layers schedule
plain callbacks.  Two API families exist because the callers split
cleanly into two camps:

* :meth:`Engine.schedule` returns an :class:`Event` handle that can be
  *cancelled* (lazy deletion — the queued entry is kept but skipped).
  Used when the caller keeps the handle (sleep timers, interruptible
  compute slices).
* :meth:`Engine.post` / :meth:`Engine.post_soon` / :meth:`Engine.post_at`
  are the fire-and-forget fast path: no handle escapes, so no Event
  object is needed at all (the dominant case — dispatch ticks, lock
  grants, doorbell rings, wire deliveries).

The queue has two tiers: a plain FIFO for the events of the current
instant, which fire with no ordering work at all, and one ``heapq`` for
everything later.  The heap stays small (a median of 8 to 103 entries
at each pop on the benchmark workloads), so a C ``heappush``/``heappop``
is all the ordering an event pays for.

``seq`` is a global monotonically increasing counter, so ties fire in
submission order and every run is bit-for-bit reproducible: events fire
in exact ``(time, seq)`` order.  The randomized fuzz in
``tests/sim/test_engine_wheel.py`` holds the engine to that order
against a plain-``heapq`` reference engine that lives in the tests.

:meth:`Engine.claim` lets a callback skip the queue for the events it
would post last: when nothing queued can fire before them, the clock
moves to their time, their seqs and firings are counted, and the
caller runs them in place.  The order, the seqs and ``fired`` are those
of the posted events; only the host work of queueing them is saved.

A run ends at its ``until`` bound or when the queue drains; draining
while a registered reporter still counts blocked actors raises
:class:`DeadlockError` instead of silently returning.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Optional

#: leap-consult threshold of an engine without a leap, and the bound of
#: a run without ``until``: later than any virtual time a run reaches
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
    a same-instant FIFO over one binary heap.

    Layout
    ------
    Entries are plain tuples — ``(time, seq, fn, args)`` for
    fire-and-forget posts (no carrier object at all), and
    ``(time, seq, None, event)`` for cancellable handles — in one of two
    tiers:

    * ``time == now`` → ``_nowq``, a FIFO: these are the same-instant
      events (``post_soon`` and zero-delay posts and handles) and they
      fire *with no ordering work at all*, each popped off the front
      before it runs, so the FIFO holds exactly the instant's pending
      entries.  This is sound because ``seq`` is globally monotonic and
      every at-``now`` arrival during an instant lands here — so
      anything already queued at this time has a smaller ``seq`` than
      every FIFO entry, and the FIFO itself is in ``seq`` order by
      construction.
    * ``time > now`` → ``heappush`` onto ``_q``, which the run loop pops
      in ``(time, seq)`` order.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._live: int = 0
        self._running = False
        #: number of callbacks actually executed (dead events excluded)
        self.fired: int = 0
        #: host diagnostic: how many of those ran in place through
        #: :meth:`claim` instead of through the queue
        self.claimed: int = 0
        #: callables that report the number of actors still blocked waiting
        #: for a simulation event; consulted on drain for deadlock detection.
        self.blocked_reporters: list[Callable[[], int]] = []
        #: quiescence-leap controller (:class:`repro.core.leap
        #: .QuiescenceLeap`), installed by PIOMan on eligible worlds;
        #: the run loop consults it at the first clock advance strictly
        #: past its ``next_try`` instant (read when a run starts).
        self.leap = None
        #: heap of every entry later than ``now`` (and of ``now`` entries
        #: folded back from the FIFO between runs)
        self._q: list[tuple] = []
        #: FIFO of entries whose time equals ``now`` (drained before the
        #: clock advances; folded back into the heap if one survives
        #: past a run, e.g. a post_soon issued between runs)
        self._nowq: deque[tuple] = deque()
        #: the running loop's ``lim`` (the earlier of the leap-consult
        #: threshold and the ``until`` bound), -1 outside a run: the
        #: latest time :meth:`claim` may move the clock to
        self._lim: int = -1

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

    def _drained(self) -> int:
        """Queue is empty: raise on deadlock, else return the final
        virtual time."""
        blocked = self.blocked_actors()
        if blocked:
            raise DeadlockError(
                f"event queue drained at t={self.now} ns with "
                f"{blocked} actor(s) still blocked"
            )
        return self.now

    def _enqueue(self, e: tuple) -> None:
        """Queue an entry with ``now < time`` whose seq the caller
        allocated (the quiescence leap re-arms its carriers at the seqs
        the slow path would have used)."""
        heappush(self._q, e)

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
        else:
            heappush(self._q, (time, seq, None, ev))
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
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        if delay == 0:
            self._nowq.append((self.now, seq, fn, args))
        else:
            heappush(self._q, (self.now + delay, seq, fn, args))

    def post_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget at an absolute virtual time (>= now), checked
        and rounded like :meth:`post`'s delay: a fractional time fires at
        the next whole ns, a non-finite one raises."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        if type(time) is not int:
            time = self.now + _coerce_delay(time - self.now)
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        if time == self.now:
            self._nowq.append((time, seq, fn, args))
        else:
            heappush(self._q, (time, seq, fn, args))

    def post_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget at the current time, after every tie already
        queued (the same-instant FIFO)."""
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        self._nowq.append((self.now, seq, fn, args))

    def claim(self, t: int, n: int = 1) -> bool:
        """True when the ``n`` events a callback is about to queue at
        time ``t``, as the last thing it does, are provably the next
        ``n`` to fire, so that it may run them in place.

        That holds inside a run when ``t`` is a whole ns no later than
        the run's ``until`` bound and its leap-consult threshold (the
        loop would stop or consult first), no same-instant entry is
        pending (it fires first) and the heap holds nothing at or before
        ``t`` (an older entry wins a tie).  Then the clock moves to
        ``t``, the ``n`` seqs the posts would take are spent and their
        firings counted, and the caller runs the continuations itself;
        what they post gets the seqs it would have got.  Outside a run,
        or when any condition fails, nothing changes and the caller
        posts as usual.
        """
        if t > self._lim or self._nowq:
            return False
        q = self._q
        if (q and q[0][0] <= t) or type(t) is not int:
            return False
        self.now = t
        self._seq += n
        self.claimed += n
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def next_external_time(self, carriers: set) -> Optional[int]:
        """Earliest live queued event that is not one of ``carriers``.

        ``carriers`` is a set of cancellable :class:`Event` handles the
        quiescence leap has classified as elidable periodic idle
        carriers; everything else — fire-and-forget posts, other
        handles — is *external* and bounds the leap.  Returns None when
        no external event is queued.  Read-only: never pops or reorders
        queue state.

        The heap head answers when it is a post or a live non-carrier
        handle (the shard coordinator's query, with no carriers, almost
        always stops there); only a dead or carrier head costs a scan.

        Exact between runs and inside callbacks: the FIFO holds only
        pending entries (each is popped before it fires).
        """
        for e in self._nowq:
            if e[2] is not None or (e[3].alive and e[3] not in carriers):
                return e[0]
        q = self._q
        if q:
            e = q[0]
            if e[2] is not None or (e[3].alive and e[3] not in carriers):
                return e[0]
        best = None
        for e in q:
            if e[2] is None:
                ev = e[3]
                if not ev.alive or ev in carriers:
                    continue
            if best is None or e[0] < best:
                best = e[0]
        return best

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is drained.

        Skims dead entries off the heap's front exactly like the run
        loop would; reads the same-instant FIFO without draining it.
        """
        for e in self._nowq:
            if e[2] is not None or e[3].alive:
                return e[0]
        q = self._q
        while q and q[0][2] is None and not q[0][3].alive:
            heappop(q)
        return q[0][0] if q else None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> int:
        """Run until the queue drains or the clock reaches ``until`` ns;
        returns the virtual time.

        Events at times <= ``until`` fire.  Times are whole ns, so a
        fractional bound stops the clock at ``floor(until)``; a
        non-finite one, or one before ``now``, raises
        :class:`ValueError` (the clock never moves backwards).  Draining
        with blocked actors raises :class:`DeadlockError` — a simulation
        that silently stops with threads still waiting is almost always a
        bug in the caller's protocol.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        hi = until
        if hi is not None:
            if type(hi) is not int:
                if not math.isfinite(hi):
                    raise ValueError(f"cannot run until {until!r} ns: not a finite time")
                hi = math.floor(hi)
            if hi < self.now:
                raise ValueError(f"cannot run until {until} ns: the clock is at {self.now} ns")
        self._running = True
        q = self._q
        nowq = self._nowq
        if nowq:
            # entries that outlived their instant (posted outside a run,
            # or left by a callback that raised) may tie with older heap
            # entries of *smaller* seq: merge them through the heap
            for e in nowq:
                heappush(q, e)
            nowq.clear()
        popleft = nowq.popleft
        nfired = 0
        ndone = 0  # deferred _live decrements, flushed once in finally
        nclaimed = self.claimed
        cur = self.now  # mirror of self.now: skip the store on time ties
        stop = _NEVER if hi is None else hi
        # Quiescence leap: consulted at the first clock advance strictly
        # past ``ntry``.  ``lim`` folds the leap threshold and the bound
        # into one compare per clock advance; without a leap or a bound
        # each is a time no run reaches.  ``_lim`` mirrors it for claim,
        # which moves the clock behind ``cur``'s back: ``cur`` may then
        # lag ``now``, which only costs a store (nothing is queued at or
        # before a claimed time).
        lp = self.leap
        ntry = _NEVER if lp is None else lp.next_try
        lim = self._lim = ntry if ntry < stop else stop
        try:
            while True:
                # drain the instant: at-``now`` arrivals fire FIFO, which
                # IS (time, seq) order (see class doc), unless older ties
                # still sit at the heap head.  Each entry leaves the FIFO
                # before it fires, so a raiser counts as fired and does
                # not refire on resume.
                if nowq and not (q and q[0][0] == cur):
                    while nowq:
                        e = popleft()
                        efn = e[2]
                        if efn is not None:
                            nfired += 1
                            ndone += 1
                            efn(*e[3])
                        else:
                            ev = e[3]
                            if ev.alive:
                                nfired += 1
                                ndone += 1
                                ev._engine = None
                                ev.fn(*ev.args)
                    continue  # instant callbacks may have refilled the heap
                if not q:
                    return self._drained()
                t, s, fn, a = heappop(q)
                if t != cur:
                    if t > lim and (t > stop or fn is not None or a.alive):
                        # past the bound (a dead entry too: the clock
                        # still reaches ``until``), or the one leap
                        # consult site, where the FIFO is empty.  The
                        # entry goes back first so the bound and the leap
                        # see it, and the threshold moves to at least
                        # ``t`` so a consult cannot repeat at one instant.
                        heappush(q, (t, s, fn, a))
                        if t > stop:
                            self.now = hi
                            return hi
                        lp.attempt(hi)
                        cur = self.now
                        ntry = max(lp.next_try, t)
                        lim = self._lim = ntry if ntry < stop else stop
                        continue
                    if fn is not None or a.alive:
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
        finally:
            self.fired += nfired + self.claimed - nclaimed
            if ndone:
                self._live -= ndone
            self._lim = -1
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self.now}ns pending={self.pending()} fired={self.fired}>"
