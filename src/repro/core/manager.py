"""The PIOMan task manager.

Ties the pieces together:

* :meth:`PIOMan.submit` — thread-context generator implementing §III-A
  submission: initialise the task, route its CPU set to the narrowest
  queue, enqueue under that queue's lock, and ring the doorbells of the
  cores allowed to run it (the modeled equivalent of their spin-polling
  noticing the list becoming non-empty).
* :meth:`PIOMan.schedule_once` — paper **Algorithm 1**: scan queues from
  the local per-core queue up to the global queue, running every task
  found; repeat tasks whose function reports "not complete" are
  re-enqueued into the same queue.  Returns ``(tasks_run,
  repeats_pending, contended)`` so the idle loop can pace its re-polling
  and stay hot after losing a dequeue race.
* attaches itself to the thread scheduler as the progression hook, so
  idle / timer / context-switch keypoints all drive it (§IV-A).

The manager is deliberately independent of NewMadeleine: any client that
can express work as ``LTask``s can use it (the "generic" in the title —
see ``examples/io_offload.py`` for a non-networking client).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.hierarchy import QueueFactory, QueueHierarchy
from repro.core.leap import QuiescenceLeap
from repro.core.queues import TaskQueue
from repro.core.task import LTask, TaskState
from repro.mem.cacheline import MemStats
from repro.obs.histogram import Histogram
from repro.sim.trace import NULL_TRACER, Tracer
from repro.threads.flag import CompletionFlag
from repro.threads.instructions import Compute, Instr, SetFlag
from repro.threads.thread import Prio, TState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry
    from repro.sim.engine import Engine
    from repro.threads.scheduler import Scheduler
    from repro.topology.machine import Machine


@dataclass
class PIOManStats:
    """Aggregate manager counters."""

    submits: int = 0
    tasks_completed: int = 0
    executions: int = 0
    repeat_requeues: int = 0
    schedule_passes: int = 0
    #: cancels that caught an *in-flight* task (dequeued or mid-run) —
    #: honored by suppressing the re-enqueue instead of a list removal
    cancels_inflight: int = 0
    executions_by_core: dict[int, int] = field(default_factory=dict)

    def note_exec(self, core: int) -> None:
        self.executions += 1
        self.executions_by_core[core] = self.executions_by_core.get(core, 0) + 1


@dataclass
class PIOManLatency:
    """Lifecycle-span distributions, registered under ``<name>.latency``.

    Field names are metric-path segments (``pioman.latency.
    submit_to_complete.p99`` ...): renaming one is an API change.
    """

    #: submission → completion, the full round the paper's tables time
    submit_to_complete: Histogram = field(default_factory=Histogram)
    #: submission → first poll by any core (aggregate across queues; each
    #: queue also keeps its own per-poll ``wait_ns`` distribution)
    queue_wait: Histogram = field(default_factory=Histogram)
    #: Algorithm-1 pass duration when at least one task ran
    schedule_pass_productive: Histogram = field(default_factory=Histogram)
    #: Algorithm-1 pass duration when the whole scan came up empty — the
    #: steady-state cost every idle core pays per keypoint
    schedule_pass_empty: Histogram = field(default_factory=Histogram)


class PIOMan:
    """The lightweight task scheduling system (the paper's contribution)."""

    def __init__(
        self,
        machine: "Machine",
        engine: "Engine",
        scheduler: Optional["Scheduler"] = None,
        *,
        queue_factory: QueueFactory = TaskQueue,
        hierarchical: bool = True,
        tracer: Tracer = NULL_TRACER,
        name: str = "pioman",
        registry: Optional["MetricsRegistry"] = None,
        summary_fastpath: bool = True,
        quiescence_leap: bool = True,
    ) -> None:
        self.machine = machine
        self.engine = engine
        self.scheduler = scheduler
        self.tracer = tracer
        self.name = name
        self.registry = registry
        self.hierarchy = QueueHierarchy(
            machine, engine, queue_factory=queue_factory, hierarchical=hierarchical
        )
        self.stats = PIOManStats()
        self.latency = PIOManLatency()
        #: monotonic per-queue-scan stamp (see LTask.polled_stamp)
        self._poll_stamp = 0
        #: numbers anonymous tasks' completion flags (id() would leak
        #: heap addresses into names, which must be process-independent)
        self._anon_seq = 0
        #: coherence counters shared by every completion flag: no
        #: registry path reads them, and one object per task would be
        #: kept alive as long as the task
        self._flag_stats = MemStats()
        # Bound-method caches for the per-pass histogram records: every
        # Algorithm-1 pass ends in exactly one of these, and the two
        # attribute hops per call are measurable at scan frequency.
        self._rec_pass_empty = self.latency.schedule_pass_empty.record
        self._rec_pass_productive = self.latency.schedule_pass_productive.record
        # The hierarchy's per-core scan paths are fixed after construction;
        # index them directly instead of a method call per Algorithm-1 pass.
        self._scan_paths = self.hierarchy._scan_paths
        # Occupancy-summary fast path (see schedule_once): per-core tables
        # precomputed so the primed empty pass touches no queue objects.
        # _fast_pairs replays the probe counters of a settled-empty path
        # ((queue stats, line stats) per level), and _fast_compute is the
        # reusable batched-cost instruction (instructions are read-only to
        # the interpreter, like the idle loop's reused instances).
        self.summary_fastpath = bool(summary_fastpath)
        local_ns = machine.spec.local_ns
        self._scan_masks = self.hierarchy.scan_masks
        self._fast_pairs = []
        self._fast_compute = []
        for path in self._scan_paths:
            self._fast_pairs.append(
                [(q.stats, q.state_line.stats) for q in path]
            )
            self._fast_compute.append(Compute(len(path) * local_ns))
        # One tuple load per fast_pass call instead of five attribute
        # chains (stats, summary stats, pairs, batched instruction).
        self._fast_ctx = [
            (self.stats, self.hierarchy.summary_stats, pairs, comp)
            for pairs, comp in zip(self._fast_pairs, self._fast_compute)
        ]
        # Locks report contended handoffs onto the same trace stream, so
        # the analyzer can line contention intervals up with task slices;
        # queues add the submit->enqueue causal edge.
        for queue in self.hierarchy.queues():
            queue.lock.tracer = tracer
            queue.tracer = tracer
        if registry is not None:
            registry.register(name, self.stats)
            registry.register(f"{name}.shares", self.execution_shares)
            registry.register(f"{name}.latency", self.latency)
            registry.register(f"{name}.summary", self.hierarchy.summary_stats)
            for queue in self.hierarchy.queues():
                queue.register_into(registry, prefix=name)
        # Quiescence leap (repro.core.leap): opt-out via the
        # ``quiescence_leap`` argument (the leap-off oracle); requires the
        # summary fast path (the leap replays its accounting) and a
        # true_spin scheduler (the only world with provably periodic
        # idle carriers).  One controller per engine: the first eligible
        # manager installs it.
        self.quiescence_leap = quiescence_leap
        if scheduler is not None:
            scheduler.progression_hook = self.schedule_once
            if self.summary_fastpath:
                scheduler.progression_fast = self.fast_pass
                scheduler.progression_fast_done = self._rec_pass_empty
                if (
                    self.quiescence_leap
                    and scheduler.true_spin
                    and engine.leap is None
                ):
                    engine.leap = QuiescenceLeap(engine, scheduler, self)

    # ------------------------------------------------------------------
    # task construction & submission
    # ------------------------------------------------------------------
    def submit(self, core: int, task: LTask) -> Generator[Instr, Any, LTask]:
        """Submit ``task`` from ``core`` (thread-context generator).

        Binds the completion flag (home = submitting core, like the
        paper's task structure embedded in the submitter's packet
        wrapper), routes the CPU set, enqueues, rings doorbells.
        """
        if task.state is not TaskState.CREATED:
            raise RuntimeError(f"submit of {task.name!r} in state {task.state}")
        spec = self.machine.spec
        yield Compute(spec.task_init_ns)
        queue = self._bind(core, task)
        yield Compute(spec.submit_route_ns)
        yield from queue.enqueue(core, task)
        self._announce(core, task, queue)
        return task

    def submit_nowait(self, core: int, task: LTask) -> LTask:
        """Host-instant submission from task context (tasks spawning tasks).

        A running task's function cannot yield instructions; its own
        ``cost_ns`` is expected to cover the submission work.  Routing,
        completion-flag binding, statistics and doorbells behave exactly
        like :meth:`submit`.
        """
        if task.state is not TaskState.CREATED:
            raise RuntimeError(f"submit of {task.name!r} in state {task.state}")
        queue = self._bind(core, task)
        queue.enqueue_nowait(core, task)
        self._announce(core, task, queue)
        return task

    def _bind(self, core: int, task: LTask) -> TaskQueue:
        """Both submits' set-up: bind the completion flag and the submit
        stamp, and route the CPU set to its queue."""
        if not task.name:
            self._anon_seq += 1
        task.completion = CompletionFlag(
            self.machine, self.engine, home=core,
            name=task.name or self._anon_seq, stats=self._flag_stats,
        )
        task.submit_time = self.engine.now
        return self.hierarchy.queue_for_cpuset(task.cpuset)

    def _announce(self, core: int, task: LTask, queue: TaskQueue) -> None:
        """Both submits' tail, once ``task`` is queued: count it, trace it
        and ring the doorbells of the cores that may run it."""
        self.stats.submits += 1
        if self.tracer.enabled:
            self.tracer.emit(
                self.engine.now, "pioman", f"core{core}",
                f"submit {task.name} -> {queue.name}",
                phase="submit", task=task.name, queue=queue.name, core=core,
            )
        if self.scheduler is not None:
            # Only cores that may run the task spin on its queue.
            ringable = task.cpuset & queue.node.cpuset
            cause = None
            if self.tracer.enabled and task.name:
                cause = (f"T:{task.name}/enq", self.engine.now)
            self.scheduler.ring_cpuset(ringable, core, cause=cause)

    def submit_preemptive(self, core: int, task: LTask) -> Generator[Instr, Any, LTask]:
        """Future-work extension (§VI): run ``task`` at once on a remote
        CPU by injecting a keypoint there, instead of waiting for the
        target's next natural keypoint.

        The task is routed to the *specific* best core's own queue (idle
        preferred, nearest first) and that core gets an immediate kick.
        """
        from repro.topology.cpuset import CpuSet

        target = self.find_idle_core(core, task.cpuset)
        if target is None:
            # Nobody idle: preempt the nearest allowed core instead of
            # waiting for its next natural keypoint.
            allowed = [c for c in task.cpuset if c < self.machine.ncores]
            if not allowed:
                raise ValueError("preemptive task has no core on this machine")
            target = min(allowed, key=lambda c: self.machine.xfer(core, c))
            task.cpuset = CpuSet.single(target)
            result = yield from self.submit(core, task)
            if self.scheduler is not None:
                self.scheduler.inject_keypoint(target)
            return result
        task.cpuset = CpuSet.single(target)
        result = yield from self.submit(core, task)
        return result

    def find_idle_core(self, from_core: int, cpuset) -> Optional[int]:
        """§IV-B submission offload: nearest idle core allowed by the set.

        "the state of each core is evaluated in order to find an idle core
        that could process the task ... the nearest idle core is specified
        in the CPU set".  Returns None when every allowed core is busy.

        The nearest-first candidate order is a per-(cpuset, origin) memo
        on the hierarchy — only the idleness check runs per call.
        """
        sched = self.scheduler
        if sched is None:
            return None
        running = sched._cur  # parallel list: one indexed load per probe
        cores = sched.cores
        for c in self.hierarchy.candidate_order(cpuset, from_core):
            cur = running[c]
            if cur is None or cur is cores[c].idle_thread or cur.prio == Prio.IDLE:
                return c
        return None

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def fast_pass(self, core: int) -> Optional[Instr]:
        """O(1) empty-pass accessory for the idle loop (plain call, no
        generator).  When ``core`` is primed — its whole scan path proven
        settled-empty and unwritten since — do the pass's host accounting
        (pass/summary counters, the per-level probe replay) and return the
        batched Compute the caller must yield; the caller then reports the
        realized span via ``progression_fast_done``.  Returns None when
        the core is not primed, sending the caller to
        :meth:`schedule_once`.  Together the two paths are observationally
        identical to the slow scan: same virtual cost, same counters, same
        single-instruction stream.
        """
        hier = self.hierarchy
        if not hier.primed_mask >> core & 1:
            return None
        stats, sstats, pairs, compute = self._fast_ctx[core]
        stats.schedule_passes += 1
        sstats.summary_hits += 1
        # each level's probe would be a local hit on an empty queue
        # (priming guarantees this core shares every emptiness line)
        for qstats, lstats in pairs:
            lstats.reads += 1
            lstats.read_hits += 1
            qstats.empty_checks += 1
        return compute

    def leap_ready(self, core: int) -> Optional[int]:
        """Quiescence-leap eligibility probe: when ``core`` is primed
        (its next pass would take :meth:`fast_pass`), return the batched
        pass cost in ns — *without* doing any accounting — else None.
        """
        if not self.hierarchy.primed_mask >> core & 1:
            return None
        return self._fast_compute[core].ns

    def leap_commit(self, core: int, k1: int, k2: int, span_ns: int) -> None:
        """Replay elided :meth:`fast_pass` rounds in O(1).

        The two sides of a poll cycle are batched separately because the
        leap may replay one of them through a real generator resume:
        ``k1`` pass *starts* (the fast_pass counter bumps) and ``k2``
        pass *completions* (the ``progression_fast_done`` record the
        idle loop issues after each).  ``span_ns`` is the realized
        per-pass span (the batched Compute cost, skew-stretched by the
        caller) — same counters, same histogram state as ``k1``/``k2``
        slow iterations.
        """
        stats, sstats, pairs, _compute = self._fast_ctx[core]
        if k1:
            stats.schedule_passes += k1
            sstats.summary_hits += k1
            for qstats, lstats in pairs:
                lstats.reads += k1
                lstats.read_hits += k1
                qstats.empty_checks += k1
        if k2:
            self.latency.schedule_pass_empty.record_many(span_ns, k2)

    def schedule_once(self, core: int) -> Generator[Instr, Any, tuple[int, int, bool]]:
        """One full Algorithm-1 pass on ``core``.

        Walks the queue scan path (per-core ... global).  Within a queue,
        keeps dequeuing until empty, but each task is run at most once per
        pass: a repeat task seen again after its own re-enqueue ends the
        queue's inner loop (one poll attempt per task per keypoint —
        PIOMan's real behaviour; a literal reading of Algorithm 1 would
        poll a never-completing task forever).

        Returns ``(ran, repeats, contended)``: tasks executed this pass,
        how many of them reported "not complete" and were re-enqueued, and
        whether the pass locked a visibly non-empty queue only to find it
        drained (lost a dequeue race).  ``contended`` reads the queue's
        ``lost_races``, which every core shares, across a ``get_task``
        that yields, so another core's lost race in between counts too.

        The occupancy-summary fast path (``summary_fastpath``, default on)
        answers the all-empty pass — the steady state of every idle core —
        in O(1): once a pass proves the whole path settled-empty (every
        probe saw empty *and* the summary agrees; inside a drain's stale
        window a probe reads non-empty), the core's bit in
        ``hierarchy.primed_mask`` is set, and the *next* pass replays the
        identical batched probe cost and counters without touching a
        queue.  Any write to a covered queue clears the bit.  A pass that
        sees work walks every level through :meth:`TaskQueue.get_task`
        either way, so only the ``.summary.`` counters differ with the
        fast path on or off.
        """
        ran = 0
        repeats = 0
        contended = False
        engine = self.engine
        pass_start = engine.now
        hier = self.hierarchy
        fast_on = self.summary_fastpath
        if fast_on:
            # O(1) empty pass when the path is settled-empty and nothing
            # was written since it was proven so (see fast_pass).  The
            # primed bit is tested here rather than by calling fast_pass:
            # the idle loop has just asked fast_pass at this instant, and
            # comes here only when it answered None.
            if hier.primed_mask >> core & 1:
                yield self.fast_pass(core)
                self._rec_pass_empty(engine.now - pass_start)
                return 0, 0, False
            if hier.summary & self._scan_masks[core]:
                hier.summary_stats.summary_misses += 1
            else:
                hier.summary_stats.stale_bits += 1
        self.stats.schedule_passes += 1
        # Batched-probe path: probe the whole scan path first and charge
        # one batch of read costs.  When everything is (visibly) empty,
        # the pass costs a single event.
        path = self._scan_paths[core]
        total_cost = 0
        any_hot = False
        for queue in path:
            visible, cost = queue.probe(core)
            total_cost += cost
            if visible:
                any_hot = True
        if not any_hot and fast_on and not hier.summary & self._scan_masks[core]:
            # Every probe observed empty and the summary confirms nothing
            # is actually queued: the path is settled for this core.
            # Prime *before* yielding — the probes happen at one virtual
            # instant, and any write landing during the Compute below
            # un-primes via the covering masks.
            hier.primed_mask |= 1 << core
        yield Compute(total_cost)
        if not any_hot:
            self._rec_pass_empty(engine.now - pass_start)
            return 0, 0, False
        for queue in path:
            qstats = queue.stats
            self._poll_stamp += 1
            stamp = self._poll_stamp
            while True:
                lost_before = qstats.lost_races
                task = yield from queue.get_task(core)
                if task is None:
                    if qstats.lost_races > lost_before:
                        contended = True  # raced another core and lost
                    break
                if task.polled_stamp == stamp:
                    # already polled this pass; put it back and move on —
                    # unless a cancel landed while it was in our hands
                    # (re-enqueueing would resurrect it)
                    if task.state is not TaskState.CANCELLED:
                        yield from queue.enqueue(core, task)
                    break
                task.polled_stamp = stamp
                complete = yield from self._run_task(core, queue, task)
                ran += 1
                if not complete:
                    repeats += 1
        pass_ns = self.engine.now - pass_start
        if ran:
            self._rec_pass_productive(pass_ns)
        else:
            self._rec_pass_empty(pass_ns)
        return ran, repeats, contended

    def _run_task(
        self, core: int, queue: TaskQueue, task: LTask
    ) -> Generator[Instr, Any, bool]:
        spec = self.machine.spec
        t0 = self.engine.now
        if task.executions == 0 and task.submit_time is not None:
            # First poll of this submission: close the queue-wait span.
            first = task.first_polled_at if task.first_polled_at is not None else t0
            self.latency.queue_wait.record(first - task.submit_time)
        tracer = self.tracer
        run_node = None
        if tracer.enabled and task.name:
            run_node = f"T:{task.name}/run{task.executions}"
            if task.executions == 0 and task.submit_time is not None:
                enq = task.enqueued_at if task.enqueued_at is not None else task.submit_time
                tracer.edge(t0, f"core{core}", "queue_wait",
                            f"T:{task.name}/enq", run_node, enq, queue=queue.name)
            elif task.trace_prev_run is not None:
                # repeat task: chain this poll to the previous one
                prev = task.trace_prev_run
                tracer.edge(t0, f"core{core}", "poll", prev[0], run_node, prev[1],
                            queue=queue.name)
            if self.scheduler is not None:
                cs = self.scheduler.cores[core]
                if cs.last_wake is not None:
                    wake, wake_ns = cs.last_wake
                    cs.last_wake = None
                    tracer.edge(t0, f"core{core}", "dispatch", wake, run_node, wake_ns)
        yield Compute(spec.task_run_ns + task.cost_ns)
        if task.state is TaskState.CANCELLED:
            # A cancel landed between our dequeue and the execution (the
            # task was in flight, in no queue): honor it — running the
            # function or re-enqueueing now would resurrect the task.
            return True
        if run_node is not None:
            # Causal context for host-instant work the function triggers
            # (NIC posts, CQ handlers); cleared before anything can yield.
            tracer.cursor = run_node
            complete = task.run(core)
            tracer.cursor = None
        else:
            complete = task.run(core)
        self.stats.note_exec(core)
        if task.repeat and not complete:
            if task.state is TaskState.CANCELLED:
                # cancelled during its own run (storm racing a repeat
                # task): stop here, no re-enqueue, no completion record
                return True
            self.stats.repeat_requeues += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    self.engine.now, "pioman", f"core{core}", f"repeat {task.name}",
                    phase="run", task=task.name, queue=queue.name, core=core,
                    start=t0, complete=False,
                )
                if run_node is not None:
                    task.trace_prev_run = (run_node, self.engine.now)
            yield from queue.enqueue(core, task)
            return False
        task.state = TaskState.DONE
        task.complete_time = self.engine.now
        # Stamps are compared only within one pass and start at 1: a
        # finished task keeps the shared 0 instead of its pass's int.
        task.polled_stamp = 0
        if task.submit_time is not None:
            self.latency.submit_to_complete.record(
                self.engine.now - task.submit_time
            )
        self.stats.tasks_completed += 1
        if task.completion is not None:
            yield SetFlag(task.completion)
        if self.tracer.enabled:
            self.tracer.emit(
                self.engine.now, "pioman", f"core{core}", f"completed {task.name}",
                phase="run", task=task.name, queue=queue.name, core=core,
                start=t0, complete=True,
            )
            if run_node is not None:
                self.tracer.edge(
                    self.engine.now, f"core{core}", "compute",
                    run_node, f"T:{task.name}/done", t0, queue=queue.name,
                )
        return True

    # ------------------------------------------------------------------
    # cancellation & inspection
    # ------------------------------------------------------------------
    def cancel(self, task: LTask) -> bool:
        """Cancel ``task`` (host-instant; teardown and fault storms).

        Queued tasks are removed from their list (the queue keeps its
        emptiness line and occupancy-summary bookkeeping consistent, see
        :meth:`TaskQueue.remove`).  A task that is *in flight* — already
        dequeued by a scanning core (still ``QUEUED``, in no list) or a
        repeat task mid-run — cannot be removed from anywhere, but it
        can still be marked: every re-enqueue path checks for
        ``CANCELLED`` and drops the task instead of resurrecting it.
        Earlier revisions returned False here and the next repeat
        re-enqueue brought the task back from the dead, with a summary
        bit set for work the caller believed gone.

        Returns True when the task will not run (again); False when it
        is unknown or completing anyway (``RUNNING`` non-repeat, which
        finishes regardless, or already ``DONE``/``CANCELLED``).
        """
        for queue in self.hierarchy.queues():
            if queue.remove(task):
                task.state = TaskState.CANCELLED
                return True
        st = task.state
        if st is TaskState.QUEUED or (st is TaskState.RUNNING and task.repeat):
            task.state = TaskState.CANCELLED
            self.stats.cancels_inflight += 1
            return True
        return False

    def pending_tasks(self) -> int:
        return self.hierarchy.total_queued()

    def execution_shares(self) -> dict[int, float]:
        """Fraction of all executions done by each core (Tables I/II
        commentary: balance within a chip, imbalance on the global queue).
        """
        total = self.stats.executions
        if not total:
            return {}
        return {
            c: n / total for c, n in sorted(self.stats.executions_by_core.items())
        }

    def __repr__(self) -> str:
        return f"<PIOMan {self.name} pending={self.pending_tasks()} run={self.stats.executions}>"
