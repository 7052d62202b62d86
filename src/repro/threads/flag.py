"""Completion flags.

A :class:`Flag` is a one-word synchronization cell backed by a
:class:`~repro.mem.cacheline.CacheLine`.  It supports two waiting styles:

* **spin** — the waiter keeps its core and notices the store one line
  transfer after it happens (microbench completion words, lock-style
  waiting);
* **block** — the waiter is descheduled and woken through the scheduler
  (MPI blocking receives, thread join).

Both notice latencies are derived from the machine's transfer-cost matrix,
so a cross-NUMA completion is observed later than a local one — that
asymmetry is load-bearing for Tables I/II.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.mem.cacheline import CacheLine, MemStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.topology.machine import Machine
    from repro.threads.thread import SimThread


class Flag:
    """One-shot (resettable) completion word with cost-modeled wakeups.

    The waiter lists exist only while someone waits: a flag nobody waits
    on (most completion flags) holds ``None`` in both.
    """

    __slots__ = ("machine", "engine", "line", "is_set", "name", "_spinners", "_blockers")

    def __init__(
        self,
        machine: "Machine",
        engine: "Engine",
        home: int = 0,
        name: str = "",
        stats: Optional[MemStats] = None,
    ) -> None:
        self.machine = machine
        self.engine = engine
        self.line = CacheLine(machine, home=home, name=name or "flag", stats=stats)
        self.is_set = False
        self.name = name
        #: (core, resume_cb) pairs busy-spinning on the word
        self._spinners: Optional[list[tuple[int, Callable[[], None]]]] = None
        #: threads descheduled on the word
        self._blockers: Optional[list["SimThread"]] = None

    # ------------------------------------------------------------------
    def read(self, core: int) -> int:
        """Check the word; returns the read latency in ns."""
        return self.line.read(core)

    def set(self, core: int) -> int:
        """Set the word from ``core``; wakes waiters; returns store cost.

        The store itself is fire-and-forget (store-buffer semantics): the
        setter is charged only its local store latency.  Each spinner
        resumes one line-transfer after the store — that transfer *is* the
        notification, so it is charged once, on the observer side.
        Blocked threads are handed to the scheduler, which adds its own
        dispatch cost.
        """
        cost = self.line.write_async(core)
        self.is_set = True
        spinners = self._spinners
        if spinners is not None:
            self._spinners = None
            for waiter_core, resume in spinners:
                self.engine.post(self.machine.xfer(core, waiter_core), resume)
        blockers = self._blockers
        if blockers is not None:
            self._blockers = None
            for thread in blockers:
                delay = self.machine.xfer(core, thread.core_id)
                self.engine.post(delay, thread.scheduler.wake, thread)
        return cost

    def reset(self, core: int) -> int:
        """Clear the word (must have no waiters)."""
        if self._spinners or self._blockers:
            raise RuntimeError(f"reset of {self.name!r} with waiters present")
        self.is_set = False
        return self.line.write(core)

    # -- waiter registration (called by the scheduler) -------------------
    def add_spinner(self, core: int, resume: Callable[[], None]) -> tuple:
        entry = (core, resume)
        if self._spinners is None:
            self._spinners = [entry]
        else:
            self._spinners.append(entry)
        return entry

    def remove_spinner(self, entry: tuple) -> bool:
        """Deregister a spinner (timer preemption); False if already woken."""
        if self._spinners is None:
            return False
        try:
            self._spinners.remove(entry)
            return True
        except ValueError:
            return False

    def add_blocker(self, thread: "SimThread") -> None:
        if self._blockers is None:
            self._blockers = [thread]
        else:
            self._blockers.append(thread)

    def remove_blocker(self, thread: "SimThread") -> bool:
        """Deregister a blocked thread (multi-flag waits); False if absent."""
        if self._blockers is None:
            return False
        try:
            self._blockers.remove(thread)
            return True
        except ValueError:
            return False

    def waiter_count(self) -> int:
        return len(self._spinners or ()) + len(self._blockers or ())

    def __repr__(self) -> str:
        state = "set" if self.is_set else "clear"
        return f"<Flag {self.name or id(self)} {state} waiters={self.waiter_count()}>"
