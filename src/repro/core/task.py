"""Lightweight tasks (ltasks).

A task is "running a function with a given parameter" (paper §III) plus:

* a **CPU set** restricting which cores may execute it;
* an optional **repeat** flag: the task is re-enqueued into the same queue
  until its function reports completion (used for NIC polling);
* a **completion flag** other threads can spin or block on;
* an embedded-allocation convention: NewMadeleine embeds the task in its
  packet wrapper so submission allocates nothing (paper §IV-B) — here the
  ``owner`` back-pointer plays that role and :class:`LTask` construction is
  cheap and reusable via :meth:`reset`.

The task function runs *host-instant*; its virtual duration is
``MachineSpec.task_run_ns + cost_ns``.  For repeat tasks the function
returns truthy when the task is complete (e.g. the poll succeeded).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.topology.cpuset import CpuSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.threads.flag import Flag


class TaskOption(enum.Flag):
    NONE = 0
    #: re-enqueue until the function returns truthy (polling tasks)
    REPEAT = enum.auto()
    #: extension (paper §VI future work): may be executed immediately on a
    #: remote CPU by injecting a keypoint there
    PREEMPTIVE = enum.auto()


#: the REPEAT bit, for :attr:`LTask.repeat`
_REPEAT = TaskOption.REPEAT._value_


class TaskState(enum.Enum):
    CREATED = "created"
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"


TaskFn = Callable[["LTask"], Any]


class LTask:
    """One lightweight task."""

    __slots__ = (
        "func",
        "arg",
        "cpuset",
        "_options",
        "repeat",
        "cost_ns",
        "name",
        "state",
        "completion",
        "owner",
        "submit_time",
        "complete_time",
        "executions",
        "current_core",
        "enqueued_at",
        "first_polled_at",
        "trace_prev_run",
        "polled_stamp",
    )

    def __init__(
        self,
        func: Optional[TaskFn],
        arg: Any = None,
        *,
        cpuset: CpuSet,
        options: TaskOption = TaskOption.NONE,
        cost_ns: int = 0,
        name: str = "",
        owner: Any = None,
    ) -> None:
        if not cpuset:
            raise ValueError("a task needs a non-empty CPU set")
        if cost_ns < 0:
            raise ValueError("negative task cost")
        self.func = func
        self.arg = arg
        self.cpuset = cpuset
        self.options = options
        self.cost_ns = cost_ns
        self.name = name
        self.state = TaskState.CREATED
        #: bound by the manager at submit time (needs machine + engine)
        self.completion: Optional["Flag"] = None
        self.owner = owner
        self.submit_time: Optional[int] = None
        self.complete_time: Optional[int] = None
        #: runs of this task's function since its submission (per-core
        #: counts live in ``PIOManStats.executions_by_core``)
        self.executions = 0
        #: core currently (or last) executing this task's function
        self.current_core: Optional[int] = None
        #: lifecycle spans (virtual-time stamps, set by queue/manager):
        #: when the task last entered a queue (re-stamped on repeat
        #: re-enqueues, so dequeue-time minus this is the *per-poll* wait)
        self.enqueued_at: Optional[int] = None
        #: when a core first picked the task up (queue-wait span end)
        self.first_polled_at: Optional[int] = None
        #: causal-trace chaining for repeat tasks: ``(run_node, end_ns)``
        #: of the previous poll (assigned only while tracing is enabled)
        self.trace_prev_run: Optional[tuple] = None
        #: scan-pass stamp: equals the manager's current per-queue poll
        #: stamp iff this task was already polled in that scan (dedup must
        #: not key on ``id()`` — a freed task's address can be reused by a
        #: new task mid-pass, making behaviour depend on heap layout); 0
        #: before the first poll and again once the task finishes
        self.polled_stamp = 0

    # ------------------------------------------------------------------
    # lifecycle spans
    # ------------------------------------------------------------------
    @property
    def submitted_at(self) -> Optional[int]:
        """Span alias: virtual time of submission (``submit_time``)."""
        return self.submit_time

    @property
    def completed_at(self) -> Optional[int]:
        """Span alias: virtual time of completion (``complete_time``)."""
        return self.complete_time

    @property
    def poll_attempts(self) -> int:
        """How many times a core polled (ran) this task's function since
        its submission (:meth:`reset` starts the count again)."""
        return self.executions

    def queue_wait_ns(self) -> Optional[int]:
        """Submission → first poll: how long the task sat unserved."""
        if self.submit_time is None or self.first_polled_at is None:
            return None
        return self.first_polled_at - self.submit_time

    def latency_ns(self) -> Optional[int]:
        """Submission → completion: the full lifecycle span."""
        if self.submit_time is None or self.complete_time is None:
            return None
        return self.complete_time - self.submit_time

    # ------------------------------------------------------------------
    @property
    def options(self) -> TaskOption:
        return self._options

    @options.setter
    def options(self, options: TaskOption) -> None:
        self._options = options
        # A plain bool, read on every run of the task.  Tested on the
        # member's int value: ``Flag``'s ``&`` and ``in`` are Python-level
        # calls, each dearer than the rest of a task's construction.
        self.repeat = options._value_ & _REPEAT != 0

    @property
    def preemptive(self) -> bool:
        return TaskOption.PREEMPTIVE in self._options

    @property
    def done(self) -> bool:
        return self.state is TaskState.DONE

    def run(self, core: int) -> bool:
        """Invoke the function on ``core``; returns completion verdict."""
        self.state = TaskState.RUNNING
        self.current_core = core
        self.executions += 1
        if self.func is None:
            return True
        result = self.func(self)
        if not self.repeat:
            return True
        return bool(result)

    def reset(self) -> None:
        """Make the task submittable again (embedded-reuse convention).

        Every per-submission field starts over, ``executions`` included:
        the manager closes a submission's queue-wait span on its first
        run, which it recognises by ``executions == 0``.
        """
        if self.state in (TaskState.QUEUED, TaskState.RUNNING):
            raise RuntimeError(f"cannot reset in-flight task {self.name!r}")
        self.state = TaskState.CREATED
        self.completion = None
        self.submit_time = None
        self.complete_time = None
        self.enqueued_at = None
        self.first_polled_at = None
        self.trace_prev_run = None
        self.executions = 0
        self.current_core = None

    def __repr__(self) -> str:
        return (
            f"<LTask {self.name or id(self)} {self.state.value} "
            f"cpuset={list(self.cpuset)}{' repeat' if self.repeat else ''}>"
        )
