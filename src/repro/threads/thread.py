"""Simulated threads.

A :class:`SimThread` wraps a generator ("body") that yields
:mod:`~repro.threads.instructions` objects.  Threads are pinned to a core
at spawn (Marcel binds its LWPs similarly; the paper's benchmarks spread
application threads across cores and keep them there).  Priorities order
dispatch on a core: injected keypoint hooks run above normal threads, the
idle loop below everything.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.threads.instructions import Instr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.threads.flag import Flag
    from repro.threads.scheduler import Scheduler


class Prio(enum.IntEnum):
    """Dispatch priority (lower value = runs first)."""

    SYSTEM = 0  # injected keypoint hooks
    NORMAL = 10  # application / library threads
    IDLE = 100  # the per-core idle loop


class TState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class ThreadCtx:
    """The API object handed to a thread body.

    Bodies receive exactly one argument — their ``ctx`` — and reach the
    whole simulated world through it.
    """

    __slots__ = ("thread",)

    def __init__(self, thread: "SimThread") -> None:
        self.thread = thread

    @property
    def scheduler(self) -> "Scheduler":
        return self.thread.scheduler

    @property
    def engine(self) -> "Engine":
        return self.thread.scheduler.engine

    @property
    def core_id(self) -> int:
        return self.thread.core_id

    @property
    def now(self) -> int:
        return self.thread.scheduler.engine.now

    def spawn(
        self,
        body: Callable[["ThreadCtx"], Generator[Instr, Any, Any]],
        core: int,
        *,
        name: str = "",
        prio: Prio = Prio.NORMAL,
    ) -> "SimThread":
        """Spawn a sibling thread (convenience passthrough)."""
        return self.thread.scheduler.spawn(body, core, name=name, prio=prio)


class SimThread:
    """One simulated thread, pinned to a core."""

    __slots__ = (
        "scheduler",
        "name",
        "core_id",
        "prio",
        "state",
        "gen",
        "ctx",
        "done_flag",
        "seq",
        "result",
        "pending_instr",
        "resume_value",
        "sleep_event",
        "is_hook",
        "cpu_ns",
        "blocked_on",
        "instr_start",
        "rq_seq",
        "spin_cancel",
        "compute_event",
        "multi_flags",
        "prio_boost",
    )

    def __init__(
        self,
        scheduler: "Scheduler",
        body: Callable[[ThreadCtx], Generator[Instr, Any, Any]],
        core_id: int,
        name: str,
        prio: Prio,
        seq: int,
        done_flag: "Flag",
    ) -> None:
        self.scheduler = scheduler
        self.name = name
        self.core_id = core_id
        self.prio = prio
        self.seq = seq
        self.state = TState.NEW
        self.ctx = ThreadCtx(self)
        self.gen = body(self.ctx)
        #: set when the body returns; join() blocks on it
        self.done_flag = done_flag
        #: value returned by the body generator
        self.result: Any = None
        #: instruction to re-execute on next dispatch (preempted compute)
        self.pending_instr: Optional[Instr] = None
        #: value delivered into ``gen.send`` on next advance
        self.resume_value: Any = None
        #: live engine event for an in-progress Sleep (cancellable by rings)
        self.sleep_event: Any = None
        #: True for injected keypoint hook threads (never re-injected over)
        self.is_hook = False
        #: virtual ns this thread actually occupied a core
        self.cpu_ns: int = 0
        #: human-readable reason while BLOCKED (diagnostics, deadlock dumps)
        self.blocked_on: str = ""
        #: virtual time at which the in-flight instruction started
        self.instr_start: int = 0
        #: run-queue arrival stamp (FIFO rotation within a priority)
        self.rq_seq: int = 0
        #: (cancel_fn, instr) while busy-spinning on a lock or flag; lets
        #: the timer preempt a spinner and re-issue the spin later
        self.spin_cancel = None
        #: (event, start_ns, slice_ns) for an in-flight Compute slice so an
        #: injected keypoint can interrupt it mid-slice
        self.compute_event = None
        #: flags this thread is registered on for a BlockOnAny wait
        self.multi_flags = None
        #: temporary effective priority (priority inheritance): set when a
        #: higher-priority spinner would otherwise starve this thread while
        #: it owns a spinlock; cleared when the lock is released
        self.prio_boost: Optional[Prio] = None

    @property
    def alive(self) -> bool:
        return self.state is not TState.DONE

    def sort_key(self) -> tuple[int, int]:
        """Run-queue ordering: priority, then FIFO arrival."""
        return (int(self.prio), self.rq_seq)

    def __repr__(self) -> str:
        return (
            f"<SimThread {self.name!r} core={self.core_id} prio={self.prio.name} "
            f"{self.state.value}{' (' + self.blocked_on + ')' if self.blocked_on else ''}>"
        )
