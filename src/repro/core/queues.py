"""Task queues — paper Algorithm 2.

A :class:`TaskQueue` sits on one topology node and is protected by a
spinlock.  ``get_task`` implements the paper's double-checked pattern:

    if notempty(Queue):        # read, NO lock
        LOCK(Queue)
        if notempty(Queue):    # re-check under the lock
            Result <- dequeue(Queue)
        UNLOCK(Queue)

so scanning an empty queue costs one shared-state cache read and produces
no lock traffic — the property that lets every idle core scan the whole
hierarchy constantly without creating contention (paper §III-A/§IV-A).

The emptiness word is its own cache line (``state_line``), distinct from
the lock word, as in a real implementation where the list head and the
lock do not share a line.

:class:`AlwaysLockTaskQueue` is the ablation-A3 variant that takes the
lock before checking, quantifying what Algorithm 2 saves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.mem.cacheline import CacheLine, MemStats
from repro.obs.histogram import Histogram
from repro.sim.trace import NULL_TRACER, Tracer
from repro.sync.spinlock import SpinLock
from repro.sync.stats import LockStats
from repro.threads.instructions import Acquire, Compute, Instr, Release
from repro.core.task import LTask, TaskState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.topology.machine import Machine, TopoNode


@dataclass
class QueueStats:
    """Counters for one task queue."""

    enqueues: int = 0
    dequeues: int = 0
    removes: int = 0  # cancelled while queued (see TaskQueue.remove)
    empty_checks: int = 0
    nonempty_checks: int = 0
    lock_sections: int = 0
    lost_races: int = 0  # saw non-empty, locked, found empty
    max_len: int = 0
    dequeued_by: dict[int, int] = field(default_factory=dict)
    #: per-poll queue-wait distribution: enqueue → dequeue span of every
    #: task this queue handed out (registry paths ``wait_ns.p50`` ...)
    wait_ns: Histogram = field(default_factory=Histogram)


class TaskQueue:
    """One spinlock-protected task list bound to a topology node."""

    def __init__(
        self,
        machine: "Machine",
        engine: "Engine",
        node: "TopoNode",
        *,
        lock_stats: Optional[LockStats] = None,
        mem_stats: Optional[MemStats] = None,
    ) -> None:
        self.machine = machine
        self.engine = engine
        self.node = node
        self.name = f"q:{node.name}"
        home = node.cpuset.first() if node.cpuset else 0
        #: home core of this queue's lines (narrowest covered core)
        self.home = home
        self.lock = SpinLock(
            machine, engine, home=home, name=f"lock:{self.name}", stats=lock_stats, mem_stats=mem_stats
        )
        # The lock section's two instructions, built once: instructions
        # are read-only values to the interpreter, and every enqueue and
        # dequeue yields them.
        self._acquire: Instr = Acquire(self.lock)
        self._release: Instr = Release(self.lock)
        #: cache line holding the emptiness word / list head
        self.state_line = CacheLine(machine, home=home, name=f"state:{self.name}", stats=mem_stats)
        self._tasks: deque[LTask] = deque()
        self.stats = QueueStats()
        #: wired by the manager alongside ``lock.tracer``; emits the
        #: submit->enqueue causal edge (zero work while disabled)
        self.tracer: Tracer = NULL_TRACER
        # Invalidation-propagation state: a core reading within one line
        # transfer of the last emptiness *transition* still sees its stale
        # cached copy (the invalidate has not reached it yet).  The stale
        # window is what makes several pollers pile onto the lock of a
        # just-emptied global queue — the contention the paper measures at
        # level 3 — while the under-lock re-check keeps them correct.
        self._trans_time = -(10**12)
        self._trans_writer = home
        self._prev_nonempty = False
        # Probe fast-path caches: the machine's distance matrices and the
        # local-hit cost are immutable after construction, and probe() runs
        # once per queue per scan — method-call and attribute-chain costs
        # there dominate an idle core's host time.
        self._inval_m = machine._inval
        self._xfer_m = machine._xfer
        self._local_ns = machine.spec.local_ns
        # Occupancy-summary attachment (see QueueHierarchy): the board is
        # the hierarchy object carrying the shared ``summary`` bitmap (one
        # bit per queue, tracking *actual* emptiness) and the per-core
        # ``primed_mask`` of the O(1) empty-pass fast path.  Any write to
        # this queue's emptiness state un-primes exactly the cores whose
        # scan path contains it (``_keep_primed`` = ~covered-cores mask).
        self._board: Any = None
        self._bitmask = 0
        self._keep_primed = -1

    def attach_summary(self, board: Any, bitmask: int, keep_primed: int) -> None:
        """Wire this queue into a hierarchy's occupancy summary.

        ``board`` carries the mutable ``summary``/``primed_mask`` ints;
        ``bitmask`` is this queue's bit; ``keep_primed`` is the core mask
        to AND into ``primed_mask`` whenever this queue's emptiness state
        is written (the complement of the cores that scan this queue).
        """
        self._board = board
        self._bitmask = bitmask
        self._keep_primed = keep_primed

    def _note_state_write(self) -> None:
        """A write touched the emptiness line: un-prime the covering cores."""
        board = self._board
        if board is not None:
            board.primed_mask &= self._keep_primed

    def _note_transition(self, core: int, prev_nonempty: bool) -> None:
        self._trans_time = self.engine.now
        self._trans_writer = core
        self._prev_nonempty = prev_nonempty
        board = self._board
        if board is not None:
            # ``summary`` tracks the *actual* emptiness exactly: a
            # transition with prev_nonempty=True just drained the queue,
            # one with prev_nonempty=False is about to make it non-empty.
            # Staleness lives in the probe's transition window and in
            # ``primed_mask``.
            if prev_nonempty:
                board.summary &= ~self._bitmask
            else:
                board.summary |= self._bitmask
            board.primed_mask &= self._keep_primed

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def probe(self, core: int) -> tuple[bool, int]:
        """Host-instant emptiness probe: ``(visible_nonempty, cost_ns)``.

        The observed value is resolved at the *start* of the read: a core
        whose cached copy has not been invalidated yet reads that copy —
        a local hit returning the stale value.  Only an up-to-date read
        pays the transfer miss.  The caller charges the cost (so a full
        scan of empty queues can be charged as one batch).
        """
        actual = True if self._tasks else False
        writer = self._trans_writer
        if core == writer:
            visible = actual
        else:
            lag = self._inval_m[writer][core]
            if self.engine.now < self._trans_time + lag:
                visible = self._prev_nonempty
            else:
                visible = actual
        stats = self.stats
        line = self.state_line
        line_stats = line.stats
        line_stats.reads += 1
        if visible != actual:
            cost = self._local_ns  # stale copy, local hit
            line_stats.read_hits += 1
        elif line.sharers >> core & 1:  # CacheLine.read inlined (hot)
            line_stats.read_hits += 1
            cost = self._local_ns
        else:
            line_stats.read_misses += 1
            cost = self._xfer_m[line.owner][core]
            line_stats.transfer_ns_total += cost
            line.sharers |= 1 << core
        if visible:
            stats.nonempty_checks += 1
        else:
            stats.empty_checks += 1
        return visible, cost

    def enqueue(self, core: int, task: LTask) -> Generator[Instr, Any, None]:
        """Append a task under the queue lock (thread-context generator)."""
        yield self._acquire
        cost = self.state_line.write_async(core)
        self._note_state_write()
        yield Compute(cost)
        if task.state is TaskState.CANCELLED:
            # Cancelled while we were acquiring the lock (a cancellation
            # storm racing an in-flight re-enqueue): leave the list
            # untouched — appending would resurrect the task and set a
            # summary bit for work that must not exist.  The line write
            # above already happened; that is just a spurious
            # invalidation, same as a lost dequeue race.
            yield self._release
            return
        self._append(core, task)
        yield self._release

    def enqueue_nowait(self, core: int, task: LTask) -> None:
        """Host-instant enqueue for task/interrupt context.

        Used when a running task spawns another task (e.g. a data-filter
        stage): the caller cannot yield instructions, and its own task
        cost already accounts for the submission work.  Line write and
        list bookkeeping match :meth:`enqueue`; lock traffic is not
        modeled for this rare path.
        """
        if task.state is TaskState.CANCELLED:
            return  # never resurrect a cancelled task (see enqueue)
        self.state_line.write_async(core)
        self._note_state_write()
        self._append(core, task)

    def _append(self, core: int, task: LTask) -> None:
        """Both enqueues' list bookkeeping: the emptiness transition, the
        task's queued state and the queue statistics."""
        if not self._tasks:
            self._note_transition(core, prev_nonempty=False)
        self._tasks.append(task)
        task.state = TaskState.QUEUED
        task.enqueued_at = self.engine.now
        self.stats.enqueues += 1
        if len(self._tasks) > self.stats.max_len:
            self.stats.max_len = len(self._tasks)
        if self.tracer.enabled:
            self._trace_enqueue(core, task)

    def _trace_enqueue(self, core: int, task: LTask) -> None:
        """Causal edge for a *first* enqueue: ``T:<t>/sub -> T:<t>/enq``.

        Repeat re-enqueues are chained by the runner's poll edge instead
        (``first_polled_at`` is set once a core has picked the task up)."""
        if task.name and task.submit_time is not None and task.first_polled_at is None:
            self.tracer.edge(
                task.enqueued_at, f"core{core}", "submit",
                f"T:{task.name}/sub", f"T:{task.name}/enq",
                task.submit_time, queue=self.name,
            )

    def get_task(self, core: int) -> Generator[Instr, Any, Optional[LTask]]:
        """Algorithm 2: double-checked dequeue."""
        nonempty, cost = self.probe(core)
        yield Compute(cost)
        if not nonempty:
            return None
        yield self._acquire
        self.stats.lock_sections += 1
        cost = self.state_line.read(core)
        task = self._pop_eligible(core)
        if task is not None:
            cost += self.state_line.write_async(core)
            self._note_state_write()
            if not self._tasks:
                self._note_transition(core, prev_nonempty=True)
            self._note_dequeued(core, task)
        elif not self._tasks:
            self.stats.lost_races += 1
        yield Compute(cost)
        yield self._release
        return task

    def _note_dequeued(self, core: int, task: LTask) -> None:
        """Span bookkeeping for a successful dequeue (host-instant)."""
        self.stats.dequeues += 1
        self.stats.dequeued_by[core] = self.stats.dequeued_by.get(core, 0) + 1
        if task.enqueued_at is not None:
            self.stats.wait_ns.record(self.engine.now - task.enqueued_at)
        if task.first_polled_at is None:
            task.first_polled_at = self.engine.now

    def _pop_eligible(self, core: int) -> Optional[LTask]:
        """Remove and return the first task ``core`` may execute.

        A task's CPU set can be narrower than this queue's span (e.g. a
        two-distant-cores set routed to the global queue), so eligibility
        is checked at dequeue time; ineligible tasks stay queued in order.
        """
        for i, task in enumerate(self._tasks):
            if task.cpuset.contains(core):
                del self._tasks[i]
                return task
        return None

    def remove(self, task: LTask) -> bool:
        """Remove a queued task (host-instant; cancellation/teardown path).

        The public counterpart of reaching into ``_tasks``: keeps the
        queue's counters consistent (``stats.removes``) and notes the
        emptiness transition when the removal drains the queue, so pollers
        observe the state change with the same stale-window semantics as a
        dequeue.  The removal is attributed to the queue's home core (the
        canceller's core is unknown on this host-instant path).  Returns
        False if the task is not queued here.

        Like every mutation of the task list, the removal *writes* the
        emptiness line: remote cached copies are invalidated (their next
        probe pays a transfer miss, exactly as after a dequeue) and the
        occupancy summary is updated — a drain clears the queue's bit; a
        non-draining removal leaves it set but still un-primes scanners.
        Earlier revisions skipped the line write, leaving stale sharers
        that read the post-removal state as a free local hit.

        Works unchanged for every variant (mutex, lock-free, always-lock):
        they all share the underlying task list.
        """
        try:
            self._tasks.remove(task)
        except ValueError:
            return False
        self.stats.removes += 1
        self.state_line.write_async(self.home)
        self._note_state_write()
        if not self._tasks:
            self._note_transition(self.home, prev_nonempty=True)
        return True

    def register_into(self, registry, prefix: str = "") -> None:
        """Register this queue's counters — list traffic, lock behaviour
        (including the derived ``contention_ratio``), and the emptiness
        line's coherence stats — into a :class:`repro.obs.MetricsRegistry`
        under ``<prefix>.<queue name>``."""
        base = f"{prefix}.{self.name}" if prefix else self.name
        registry.register(base, self.stats)
        self.lock.register_into(registry, f"{base}.lock")
        registry.register(f"{base}.mem", self.state_line.stats)

    def drain(self) -> list[LTask]:
        """Testing/shutdown helper: remove everything without cost.

        Charges nothing and notes no transition, but does keep the
        occupancy summary truthful (bit cleared, covering cores un-primed)
        so a hierarchy outlives its drained queues.
        """
        out = list(self._tasks)
        self._tasks.clear()
        if out:
            board = self._board
            if board is not None:
                board.summary &= ~self._bitmask
                board.primed_mask &= self._keep_primed
        return out

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} len={len(self._tasks)}>"


class AlwaysLockTaskQueue(TaskQueue):
    """Ablation A3: no lock-free pre-check — every scan takes the lock.

    This is the naive reading of "each of these lists has to be protected
    against concurrent access": idle cores scanning empty queues now
    generate constant lock traffic.
    """

    def get_task(self, core: int) -> Generator[Instr, Any, Optional[LTask]]:
        yield self._acquire
        self.stats.lock_sections += 1
        cost = self.state_line.read(core)
        task = self._pop_eligible(core)
        if task is not None:
            self.stats.nonempty_checks += 1
            cost += self.state_line.write_async(core)
            self._note_state_write()
            if not self._tasks:
                self._note_transition(core, prev_nonempty=True)
            self._note_dequeued(core, task)
        else:
            self.stats.empty_checks += 1
        yield Compute(cost)
        yield self._release
        return task
