"""Completion flags.

A :class:`Flag` is a one-word synchronization cell: a
:class:`~repro.mem.cacheline.CacheLine` of its own, so a flag is one
object.  It supports two waiting styles:

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


class Flag(CacheLine):
    """One-shot (resettable) completion word with cost-modeled wakeups.

    The word is its own cache line: ``read`` is the line's load, and
    ``set``/``reset`` store to it.  The waiter lists exist only while
    someone waits: a flag nobody waits on (most completion flags) holds
    ``None`` in both.
    """

    __slots__ = ("engine", "is_set", "_spinners", "_blockers")

    def __init__(
        self,
        machine: "Machine",
        engine: "Engine",
        home: int = 0,
        name: str = "",
        stats: Optional[MemStats] = None,
    ) -> None:
        CacheLine.__init__(self, machine, home, name, stats)
        self.engine = engine
        self.is_set = False
        #: (core, resume_cb) pairs busy-spinning on the word
        self._spinners: Optional[list[tuple[int, Callable[[], None]]]] = None
        #: threads descheduled on the word
        self._blockers: Optional[list["SimThread"]] = None

    @property
    def label(self) -> str:
        """The name waiters and errors report (``blocked_on``, ``repr``)."""
        return self.name

    # ------------------------------------------------------------------
    def set(self, core: int) -> int:
        """Set the word from ``core``; wakes waiters; returns store cost.

        The store itself is fire-and-forget (store-buffer semantics): the
        setter is charged only its local store latency.  Each spinner
        resumes one line-transfer after the store — that transfer *is* the
        notification, so it is charged once, on the observer side.
        Blocked threads are handed to the scheduler, which adds its own
        dispatch cost.
        """
        cost = self.write_async(core)
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
            raise RuntimeError(f"reset of {self.label!r} with waiters present")
        self.is_set = False
        return self.write(core)

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
        return f"<Flag {self.label or id(self)} {state} waiters={self.waiter_count()}>"


class CompletionFlag(Flag):
    """A task's completion flag, bound by :class:`~repro.core.manager.PIOMan`
    at every submission.

    Binding formats nothing: ``name`` keeps a reference to the task's own
    name string, or an unnamed task's number among its manager's unnamed
    tasks, and ``label`` renders ``done:<name>`` (``done:anon<n>``) only
    when something reads it.
    """

    __slots__ = ()

    @property
    def label(self) -> str:
        name = self.name
        return f"done:{name}" if isinstance(name, str) else f"done:anon{name}"
