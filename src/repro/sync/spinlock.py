"""Spinlock with NUMA-aware contention model.

PIOMan protects each task queue with a spinlock (paper §IV-A): critical
sections are shorter than a context switch, so blocking mutexes would only
add scheduling latency.  The simulated lock reproduces the two phenomena
the paper measures:

* **handoff cost scales with distance** — transferring the lock word is a
  cache-line move between the previous and the next holder, so the cost of
  a contended acquisition depends on where the contenders sit in the
  topology;
* **NUMA capture** — when the lock is released, nearby spinners observe the
  release first and win the race.  The paper reports exactly this on the
  kwak global queue ("most of the tasks are executed by cores located on
  NUMA node #2"); here it emerges from choosing the minimum-transfer-cost
  waiter, with FIFO order only breaking ties.

Contended handoffs are multiplied by ``MachineSpec.contended_factor`` to
account for the CAS-retry storm a real test-and-set spin generates while
several cores hammer the same line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.mem.cacheline import CacheLine, MemStats
from repro.sim.trace import NULL_TRACER, Tracer
from repro.sync.stats import LockStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.topology.machine import Machine


class _Waiter:
    __slots__ = ("core", "grant_cb", "enqueue_time", "seq", "owner")

    def __init__(
        self,
        core: int,
        grant_cb: Callable[[], None],
        t: int,
        seq: int,
        owner=None,
    ) -> None:
        self.core = core
        self.grant_cb = grant_cb
        self.enqueue_time = t
        self.seq = seq
        #: the SimThread that will own the lock once granted (may be None
        #: for raw callers; the scheduler passes it for priority inheritance)
        self.owner = owner


class SpinLock:
    """A test-and-test-and-set spinlock over a modeled cache line."""

    __slots__ = (
        "machine",
        "engine",
        "line",
        "name",
        "held",
        "holder",
        "_waiters",
        "_seq",
        "stats",
        "tracer",
        "_acquired_at",
        "faults",
        "holder_thread",
    )

    def __init__(
        self,
        machine: "Machine",
        engine: "Engine",
        home: int = 0,
        name: str = "",
        stats: Optional[LockStats] = None,
        mem_stats: Optional[MemStats] = None,
    ) -> None:
        self.machine = machine
        self.engine = engine
        self.line = CacheLine(machine, home=home, name=name or "spinlock", stats=mem_stats)
        self.name = name
        self.held = False
        self.holder: Optional[int] = None
        self._waiters: list[_Waiter] = []
        self._seq = 0
        self.stats = stats if stats is not None else LockStats()
        #: set by owners (PIOMan) that want contended handoffs on the trace
        self.tracer: Tracer = NULL_TRACER
        #: when the current holder's grant landed (hold-time span start)
        self._acquired_at = 0
        #: fault injector (repro.faults): lock-holder preemption windows
        self.faults = None
        #: owning SimThread while held (None for raw callers); lets the
        #: scheduler apply priority inheritance when a descheduled holder
        #: would starve behind a higher-priority spinner on its core
        self.holder_thread = None

    # ------------------------------------------------------------------
    def try_acquire(self, core: int, owner=None) -> Optional[int]:
        """Take the lock for ``core`` if it is free: one RMW on the lock
        word.  Returns the grant delay in ns — the RMW, plus a fault's
        hold-preemption window — after which the caller treats the lock
        as granted, or None when the lock is held (spin with
        :meth:`wait`).  ``owner`` is the SimThread that will hold it (the
        scheduler passes it for priority inheritance).
        """
        if self.held:
            return None
        cost = self.line.rmw(core)
        self.held = True
        self.holder = core
        self.holder_thread = owner
        self._acquired_at = self.engine.now + cost
        self.stats.note_acquire(core, contended=False)
        fi = self.faults
        if fi is not None:
            # lock-holder preemption: the winner is descheduled right
            # after taking the word — the grant (and the critical
            # section everyone else is spinning on) slips by the
            # window, which note_hold then counts as hold time
            cost += fi.hold_preempt_ns(core)
        return cost

    def wait(self, core: int, grant_cb: Callable[[], None], owner=None) -> _Waiter:
        """Spin on the held lock from ``core``: pay the failed CAS and
        queue a waiter; ``grant_cb`` fires when :meth:`release` hands the
        lock over.  The caller's core busy-spins meanwhile (the scheduler
        keeps the thread RUNNING), so the time until the grant *is* the
        spin time.  Returns the waiter entry, which
        :meth:`cancel_waiter` takes (a timer preemption cancels the
        spin).
        """
        self.line.rmw(core)  # mutates coherence state; latency folded into spin
        waiter = _Waiter(core, grant_cb, self.engine.now, self._seq, owner)
        self._waiters.append(waiter)
        self._seq += 1
        self.stats.note_waiters(len(self._waiters))
        return waiter

    def cancel_waiter(self, waiter: _Waiter) -> bool:
        """Deregister a spinning waiter (timer preemption).

        Returns False when the waiter was already selected for a handoff —
        its grant is in flight and cannot be cancelled."""
        try:
            self._waiters.remove(waiter)
            return True
        except ValueError:
            return False

    def release(self, core: int) -> int:
        """Release by the holder; returns the releaser's store cost in ns.

        If spinners are queued the lock is handed directly to the one with
        the cheapest line transfer from the releaser (NUMA capture), after
        a delay of that transfer cost — scaled by the contended factor when
        several cores are fighting for the line.
        """
        if not self.held or self.holder != core:
            raise RuntimeError(
                f"release of {self.name!r} by core {core}, holder={self.holder}"
            )
        cost = self.line.write(core)
        self.stats.note_hold(max(self.engine.now - self._acquired_at, 0))
        if not self._waiters:
            self.held = False
            self.holder = None
            self.holder_thread = None
            return cost

        # NUMA capture: the nearest waiter usually observes the release
        # first and wins — but hardware arbitration is eventually fair, so
        # a waiter older than the starvation bound takes priority (without
        # this, two nearby cores can ping-pong the lock forever while
        # remote spinners starve).
        ws = self._waiters
        xfer_row = self.machine.xfer_row(core)
        if len(ws) == 1:
            # single waiter: oldest == nearest == winner, no CAS storm
            winner = ws.pop()
            xfer = xfer_row[winner.core]
        else:
            # appends happen in ascending seq order and removals preserve
            # relative order, so the oldest waiter is always at index 0
            oldest = ws[0]
            starved = (
                self.engine.now - oldest.enqueue_time
                >= self.machine.spec.lock_starvation_ns
            )
            if starved:
                winner = oldest
                del ws[0]
                xfer = xfer_row[winner.core]
            else:
                # min(ws, key=(xfer, seq)) without a lambda per element;
                # track the index so the removal is O(1) bookkeeping on
                # top of the scan instead of a second identity pass
                winner = ws[0]
                wi = 0
                bx = xfer_row[winner.core]
                bs = winner.seq
                for i, w in enumerate(ws):
                    x = xfer_row[w.core]
                    if x < bx or (x == bx and w.seq < bs):
                        winner = w
                        wi = i
                        bx = x
                        bs = w.seq
                del ws[wi]
                xfer = bx
            if ws:  # others still hammering the line (CAS storm)
                xfer = int(xfer * self.machine.spec.contended_factor)
        delay = cost + xfer + self.machine.spec.cas_ns
        fi = self.faults
        if fi is not None:
            # lock-holder preemption on the handoff: the winner is
            # descheduled as ownership transfers; every remaining spinner
            # burns the window too (their spin spans it)
            delay += fi.hold_preempt_ns(winner.core)
        self.holder = winner.core  # ownership transfers at release time
        self.holder_thread = winner.owner
        grant_time = self.engine.now + delay
        self._acquired_at = grant_time
        spin_ns = grant_time - winner.enqueue_time
        self.stats.note_acquire(winner.core, contended=True, spin_ns=spin_ns)
        self.stats.handoffs += 1
        if self.tracer.enabled:
            self.tracer.emit(
                self.engine.now, "lock", f"core{winner.core}",
                f"contended {self.name or 'spinlock'}",
                phase="lock", lock=self.name or "spinlock", core=winner.core,
                wait_ns=spin_ns, start=winner.enqueue_time,
            )
            lk = self.name or "spinlock"
            self.tracer.edge(
                grant_time, f"core{winner.core}", "lock_wait",
                f"K:{lk}/req@{winner.enqueue_time}", f"K:{lk}/grant@{grant_time}",
                winner.enqueue_time,
            )
        self.engine.post(delay, winner.grant_cb)
        return cost

    # -- observability --------------------------------------------------
    def register_into(self, registry, path: Optional[str] = None) -> None:
        """Expose this lock's counters (and its line's coherence traffic)
        under ``path`` in a :class:`repro.obs.MetricsRegistry`."""
        base = path or self.name or f"spinlock@{id(self):x}"
        registry.register(base, self.stats)
        registry.register(f"{base}.mem", self.line.stats)

    # -- inspection -----------------------------------------------------
    def waiter_count(self) -> int:
        return len(self._waiters)

    def waiter_cores(self) -> list[int]:
        return [w.core for w in self._waiters]

    def __repr__(self) -> str:
        state = f"held by {self.holder}" if self.held else "free"
        return f"<SpinLock {self.name or id(self)} {state} waiters={len(self._waiters)}>"
