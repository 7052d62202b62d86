"""The thread scheduler (Marcel stand-in).

One :class:`Scheduler` drives the cores of one machine (one cluster node).
It owns per-core run queues, charges context-switch costs, slices long
computations at timer-quantum boundaries, and — the part the paper builds
on — invokes a *progression hook* at the scheduler keypoints:

* **idle**: each core runs an idle thread whose loop calls the hook;
* **timer interrupt**: a periodic tick on busy cores injects a one-shot
  SYSTEM-priority hook thread;
* **context switch**: switching between two application threads also
  injects the hook (rate-limited);
* **wait**: waiting threads may call the hook themselves via
  :func:`repro.core.progress.piom_wait`.

PIOMan attaches itself by assigning :attr:`Scheduler.progression_hook` —
the scheduler has no knowledge of task queues; it only provides keypoints,
exactly like Marcel provides triggers to PIOMan (paper §IV-A).

Hot-path layout
---------------
The interpreter fast path (:meth:`Scheduler._advance`, the most
frequently fired callback in the simulator) keys everything by core id:
the per-core state it touches — run queue, current thread, preempt flag,
busy time — lives in parallel lists (``_rqs``/``_cur``/``_preempt``/
``_busy``) indexed by core id rather than as attributes of the
:class:`CoreState` objects.  Every event goes through the engine's public
API (``post``/``post_soon`` fire-and-forget, ``schedule`` for the
cancellable Compute slices and sleeps): the scheduler relies only on the
engine's ``(time, seq)`` firing order, never on its queue layout.

Where a thread's next step is the last thing a callback queues — the
end of a Compute slice or of any other instruction, a dispatch, a lock
grant or a spin's end — the scheduler first asks ``Engine.claim``
whether that step would be the next event to fire.  If so it runs the
step in place (``_advance`` loops, so nothing recurses) with the seqs
and ``fired`` count the posted events would have had.

Doorbells
---------
Idle cores eventually *park* (no live events) rather than looping forever.
Submitting a task to a queue a core may serve — or a NIC writing to a
completion queue some core polls — *rings* that core's doorbell with a
delay equal to the cache-line transfer distance from the writer.  This is
the event-count-efficient model of spin-polling discussed in DESIGN.md §2:
a spinning core would notice the write exactly one coherence transfer
after it happens, which is precisely when the ring lands.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.obs.histogram import Histogram
from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.sim.trace import NULL_TRACER, Tracer
from repro.threads.flag import Flag
from repro.threads.instructions import (
    Acquire,
    BlockOn,
    BlockOnAny,
    Compute,
    Instr,
    MutexAcquire,
    MutexRelease,
    Park,
    Release,
    SetFlag,
    Sleep,
    SpinOn,
    YieldCPU,
)
from repro.threads.thread import Prio, SimThread, ThreadCtx, TState

#: bound once: TState.RUNNING is tested on every event fire in _advance
_RUNNING = TState.RUNNING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry
    from repro.topology.machine import Machine

#: signature of the progression hook: ``hook(core_id)`` is a generator
#: yielding instructions and returning ``(tasks_run, repeats_seen,
#: contended)`` — contended means the pass lost a dequeue race.
ProgressionHook = Callable[[int], Generator[Instr, Any, tuple[int, int, bool]]]


class Keypoint(enum.Enum):
    IDLE = "idle"
    TIMER = "timer"
    CTX_SWITCH = "ctx_switch"
    WAIT = "wait"

    # Enum.__hash__ is a Python-level function; these members key the
    # per-pass ``keypoint_counts`` dict increments on every idle pass.
    # Members are singletons compared by identity, so identity hashing
    # is equivalent — and C-speed.
    __hash__ = object.__hash__


class CoreState:
    """Per-core scheduling state.

    The hot fields read by the dispatch inner loop — ``run_queue``,
    ``current``, ``preempt_pending``, ``busy_ns`` — live in the owning
    scheduler's parallel lists (see the module docstring); this class
    exposes them as properties so diagnostics, reports, fault injectors
    and tests keep their one-object-per-core view, and holds the colder
    per-core state as real slots.
    """

    __slots__ = (
        "id",
        "_sched",
        "last_thread",
        "idle_thread",
        "timer_armed",
        "hook_live",
        "last_inject",
        "ctx_switches",
        "timer_ticks",
        "keypoint_counts",
        "backoff_streak",
        "last_wake",
    )

    def __init__(self, core_id: int, sched: "Scheduler") -> None:
        self.id = core_id
        self._sched = sched
        self.last_thread: Optional[SimThread] = None
        self.idle_thread: Optional[SimThread] = None
        self.timer_armed = False
        self.hook_live = False
        self.last_inject = -(10**12)
        self.ctx_switches = 0
        self.timer_ticks = 0
        self.keypoint_counts: dict[Keypoint, int] = {k: 0 for k in Keypoint}
        #: consecutive no-progress idle passes (adaptive backoff input)
        self.backoff_streak = 0
        #: causal-trace context: ``(wake_node, wake_ns)`` of the doorbell
        #: that last woke this core's idle loop, consumed by the task
        #: runner's dispatch edge (assigned only while tracing is enabled)
        self.last_wake: Optional[tuple] = None

    @property
    def run_queue(self) -> list[SimThread]:
        return self._sched._rqs[self.id]

    @property
    def current(self) -> Optional[SimThread]:
        return self._sched._cur[self.id]

    @current.setter
    def current(self, thread: Optional[SimThread]) -> None:
        self._sched._cur[self.id] = thread

    @property
    def preempt_pending(self) -> bool:
        return self._sched._preempt[self.id]

    @preempt_pending.setter
    def preempt_pending(self, flag: bool) -> None:
        self._sched._preempt[self.id] = flag

    @property
    def busy_ns(self) -> int:
        return self._sched._busy[self.id]

    @busy_ns.setter
    def busy_ns(self, ns: int) -> None:
        self._sched._busy[self.id] = ns


class Scheduler:
    """Per-node thread scheduler over simulated cores."""

    def __init__(
        self,
        machine: "Machine",
        engine: Engine,
        *,
        name: str = "node0",
        tracer: Tracer = NULL_TRACER,
        rng: Optional[Rng] = None,
        true_spin: bool = False,
        registry: Optional["MetricsRegistry"] = None,
        idle_backoff: Optional[Any] = None,
    ) -> None:
        self.machine = machine
        self.engine = engine
        self.name = name
        self.tracer = tracer
        ncores = machine.ncores
        #: hot per-core state as parallel lists indexed by core id
        #: (array-of-struct layout; CoreState exposes them as properties)
        self._rqs: list[list[SimThread]] = [[] for _ in range(ncores)]
        self._cur: list[Optional[SimThread]] = [None] * ncores
        self._preempt: list[bool] = [False] * ncores
        self._busy: list[int] = [0] * ncores
        #: per-core marker: the idle generator is suspended at the fast
        #: path's batched-Compute yield (set/cleared by the idle body
        #: around that one yield).  The quiescence leap needs this to
        #: prove a mid-pass core is at the *known* suspension point —
        #: a slow-pass Compute of coincidentally equal cost would
        #: otherwise be indistinguishable from the outside.
        self._in_fast: list[bool] = [False] * ncores
        self.cores = [CoreState(i, self) for i in range(ncores)]
        self.progression_hook: Optional[ProgressionHook] = None
        #: O(1) empty-pass accessory to the hook (see PIOMan.fast_pass):
        #: ``progression_fast(core)`` returns the pass's single batched
        #: instruction when the core's scan path is proven settled-empty
        #: (having done the pass's host-side accounting), else None and
        #: the idle loop falls back to the full generator hook.
        #: ``progression_fast_done(ns)`` records the realized pass span.
        self.progression_fast: Optional[Callable[[int], Optional[Instr]]] = None
        self.progression_fast_done: Optional[Callable[[int], None]] = None
        #: doorbell probe phases (see ring_doorbell) draw from ``rng``'s
        #: stream: its bare ``random`` and the cycle it scales to.
        #: ``random.Random.uniform(0.0, c)`` computes ``0.0 + c * random()``,
        #: so their product is that draw, bit for bit, in one C call
        self._ring_random = (rng if rng is not None else Rng(0))._r.random
        self._probe_cycle = float(machine.spec.probe_cycle_ns)
        #: validation mode: idle cores literally re-scan every probe cycle
        #: instead of parking on doorbells.  Orders of magnitude more
        #: events — only for checking the doorbell model's equivalence on
        #: small scenarios (DESIGN.md section 2).
        self.true_spin = true_spin
        #: adaptive idle backoff policy (``delay_ns(base_ns, streak)``
        #: duck-type, e.g. :class:`repro.core.variants.IdleBackoff`).
        #: None (the default) keeps the fixed re-poll periods: the policy
        #: trades empty passes for wakeup latency, so it ships as an
        #: opt-in variant quantified by the ablation bench.
        self.idle_backoff = idle_backoff
        #: per-core frequency skew (fault injection): ``core_skew[c]`` is
        #: a ``(num, den)`` multiplier stretching every fresh Compute
        #: interpreted on core ``c``, or None for a nominal core.  Set by
        #: :meth:`repro.faults.FaultInjector.install`; None (the default)
        #: leaves the interpreter's instruction stream untouched.
        self.core_skew: Optional[list] = None
        self._seq = 0
        self._rr_seq = 0
        #: timer quantum cached off the (immutable) spec: read once per
        #: Compute instruction on the interpreter fast path
        self._quantum_ns = machine.spec.timer_quantum_ns
        #: cpuset-mask -> tuple of ringable core ids (doorbell fan-out is
        #: per-submission hot; the mask universe is tiny and stable)
        self._ring_sets: dict[int, tuple[int, ...]] = {}
        #: per-keypoint progression-pass duration distributions: how long
        #: one hook invocation takes when driven from each keypoint kind
        #: (registry paths ``sched.<name>.keypoint_ns.idle.p99`` ...)
        self.keypoint_ns: dict[Keypoint, Histogram] = {k: Histogram() for k in Keypoint}
        #: live application threads (used to quiesce idle polling)
        self.normal_live = 0
        self.threads: list[SimThread] = []
        engine.blocked_reporters.append(self._count_hard_blocked)
        if registry is not None:
            registry.register(f"sched.{name}", self.core_metrics)
        for core in self.cores:
            core.idle_thread = self._spawn_idle(core.id)

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------
    def spawn(
        self,
        body: Callable[[ThreadCtx], Generator[Instr, Any, Any]],
        core: int,
        *,
        name: str = "",
        prio: Prio = Prio.NORMAL,
    ) -> SimThread:
        """Create a thread pinned to ``core`` and make it runnable."""
        if not 0 <= core < len(self.cores):
            raise ValueError(f"no such core {core}")
        self._seq += 1
        flag = Flag(self.machine, self.engine, home=core, name=f"join:{name or self._seq}")
        t = SimThread(self, body, core, name or f"t{self._seq}", prio, self._seq, flag)
        self.threads.append(t)
        if prio == Prio.NORMAL:
            self.normal_live += 1
        t.state = TState.READY
        self._enqueue(t)
        return t

    def _spawn_idle(self, core_id: int) -> SimThread:
        t = self.spawn(self._idle_body, core_id, name=f"idle{core_id}", prio=Prio.IDLE)
        return t

    def join(self, thread: SimThread) -> Generator[Instr, Any, Any]:
        """``yield from scheduler.join(t)`` — wait for a thread to finish."""
        if thread.alive:
            yield BlockOn(thread.done_flag)
        return thread.result

    # ------------------------------------------------------------------
    # the idle loop (IDLE keypoint)
    # ------------------------------------------------------------------
    #: how many extra probe cycles an idle core lingers after losing a
    #: dequeue race before parking (a spinning core stays in its hot loop)
    idle_linger_probes = 4
    #: least virtual time between two hooks injected on one core at
    #: context-switch or timer keypoints (see ``_maybe_inject_hook``)
    ctx_hook_min_interval_ns = 2_000

    def _idle_body(self, ctx: ThreadCtx) -> Generator[Instr, Any, Any]:
        core_id = ctx.core_id
        spec = self.machine.spec
        engine = self.engine
        state = self.cores[core_id]
        counts = state.keypoint_counts
        hist = self.keypoint_ns[Keypoint.IDLE]
        kp_idle = Keypoint.IDLE
        # Instructions are read-only values to the interpreter, so the
        # idle loop reuses one instance of each instead of allocating per
        # pass (this loop runs on every core at every keypoint).
        park = Park()
        yield_cpu = YieldCPU()
        sleep_probe = Sleep(spec.probe_cycle_ns)
        sleep_repoll = Sleep(spec.idle_repoll_ns)
        backoff = self.idle_backoff
        linger = 0
        while self.progression_hook is None:
            yield park
        # Hooks are wired before the engine runs (PIOMan attaches itself at
        # construction) and never swapped mid-run, so the loop binds them
        # once instead of re-reading three attributes per pass.
        hook = self.progression_hook
        fast = self.progression_fast
        fast_done = self.progression_fast_done
        rq = self._rqs[core_id]
        true_spin = self.true_spin
        linger_max = self.idle_linger_probes
        in_fast = self._in_fast
        while True:
            counts[kp_idle] += 1
            hook_t0 = engine.now
            instr = fast(core_id) if fast is not None else None
            if instr is not None:
                # Settled-empty pass: the accessory already did the pass
                # accounting; yield its batched cost directly, skipping a
                # generator creation + two resumes per pass.  The marker
                # brackets exactly this yield: the quiescence leap may
                # only resume a generator it can prove is suspended here.
                in_fast[core_id] = True
                yield instr
                in_fast[core_id] = False
                span = engine.now - hook_t0
                hist.record(span)
                fast_done(span)
                ran = repeats = 0
                contended = False
            else:
                res = yield from hook(core_id)
                hist.record(engine.now - hook_t0)
                if res is None:
                    ran = repeats = 0
                    contended = False
                else:
                    ran, repeats, contended = res
            if backoff is not None:
                # streak of passes that completed nothing; any doorbell
                # (_ring_arrive) resets it, so a submission snaps the
                # core back to the base period
                if ran > repeats:
                    state.backoff_streak = 0
                else:
                    state.backoff_streak += 1
            if rq and self._has_ready_normal(core_id):
                yield yield_cpu
            elif ran > repeats:
                # made real progress (completed at least one task):
                # rescan immediately
                linger = 0
                continue
            elif contended and linger < linger_max:
                # Just lost a dequeue race: stay hot and re-probe, like a
                # real spinner would — this keeps contention alive across
                # back-to-back submissions (paper Tables I/II, level 2/3).
                # Deliberately never stretched: lingering exists to keep
                # contention behaviour realistic, not to save passes.
                linger += 1
                yield sleep_probe
            elif repeats and self.normal_live > 0:
                linger = 0
                if backoff is None:
                    yield sleep_repoll
                else:
                    yield Sleep(
                        backoff.delay_ns(spec.idle_repoll_ns, state.backoff_streak)
                    )
            elif true_spin and self.normal_live > 0:
                # literal spin-polling: re-scan one probe cycle from now
                linger = 0
                if backoff is None:
                    yield sleep_probe
                else:
                    yield Sleep(
                        backoff.delay_ns(spec.probe_cycle_ns, state.backoff_streak)
                    )
            else:
                linger = 0
                yield park

    def _has_ready_normal(self, core_id: int) -> bool:
        # plain loop: this runs once per idle pass, and a genexp + any()
        # allocates a generator and a frame every call
        ready = TState.READY
        for t in self._rqs[core_id]:
            if t.prio <= Prio.NORMAL and t.state is ready:
                return True
        return False

    # ------------------------------------------------------------------
    # doorbells
    # ------------------------------------------------------------------
    def ring_doorbell(
        self, core_id: int, from_core: int, extra_ns: int = 0, cause=None
    ) -> None:
        """Wake ``core_id``'s idle loop as its next poll probe would land.

        A continuously-spinning core re-probes every ``probe_cycle_ns``;
        the write that rings the bell lands at a uniform-random phase of
        that cycle, plus the line-transfer distance from the writer.  The
        random phase is what lets equidistant cores race in varying order
        (and is the source of the contention storms the paper measures on
        the global queue).

        ``cause`` is an optional ``(node_id, cause_ns)`` causal-trace
        origin carried to the arrival; when it is None the posted event is
        identical to the untraced one."""
        phase = self._probe_cycle * self._ring_random()
        # A probe cannot observe the write before the invalidation reaches
        # this core: the ring lands no earlier than that propagation
        # (``notice`` is the precomputed max of transfer and invalidation).
        delay = int(phase) + self.machine.notice(from_core, core_id) + extra_ns
        if cause is None:
            self.engine.post(delay, self._ring_arrive, core_id)
        else:
            self.engine.post(delay, self._ring_arrive, core_id, cause)

    def ring_cpuset(self, cpuset, from_core: int, extra_ns: int = 0, cause=None) -> None:
        """Ring every core in a CPU set (used on task submission)."""
        cores = self._ring_sets.get(cpuset.mask)
        if cores is None:
            ncores = len(self.cores)
            cores = tuple(c for c in cpuset if c < ncores)
            self._ring_sets[cpuset.mask] = cores
        for c in cores:
            self.ring_doorbell(c, from_core, extra_ns, cause)

    def _ring_arrive(self, core_id: int, cause=None) -> None:
        core = self.cores[core_id]
        # a doorbell means work may be visible: reset the backoff streak
        # even if the idle thread is mid-pass (true_spin) or already awake
        core.backoff_streak = 0
        idle = core.idle_thread
        if idle is None or idle.state is not TState.BLOCKED:
            return
        if idle.sleep_event is not None:
            idle.sleep_event.cancel()
            idle.sleep_event = None
        if cause is not None and self.tracer.enabled:
            now = self.engine.now
            wake = f"C:{self.name}.{core_id}/wake@{now}"
            core.last_wake = (wake, now)
            self.tracer.edge(now, f"core{core_id}", "wakeup", cause[0], wake, cause[1])
        self.wake(idle)

    # ------------------------------------------------------------------
    # wake / dispatch machinery
    # ------------------------------------------------------------------
    def wake(self, thread: SimThread) -> None:
        """Transition a BLOCKED thread to READY and dispatch its core."""
        if thread.state is not TState.BLOCKED:
            return
        if thread.sleep_event is not None:
            thread.sleep_event.cancel()
            thread.sleep_event = None
        if thread.multi_flags is not None:
            # deregister from the flags that did not fire
            for f in thread.multi_flags:
                f.remove_blocker(thread)
            thread.multi_flags = None
        thread.state = TState.READY
        thread.blocked_on = ""
        self._enqueue(thread)

    def _enqueue(self, thread: SimThread) -> None:
        cid = thread.core_id
        thread.rq_seq = self._rr_seq
        self._rr_seq += 1
        self._rqs[cid].append(thread)
        cur = self._cur[cid]
        if cur is None:
            self.engine.post_soon(self._dispatch, cid)
        elif thread.prio < cur.prio:
            self._preempt[cid] = True
            if cur.spin_cancel is not None:
                # A higher-priority arrival must not wait behind an
                # unbounded busy-spin: cancel and re-issue the spin.
                self._cancel_spin(cid, cur)

    def _dispatch(self, core_id: int) -> None:
        rq = self._rqs[core_id]
        if self._cur[core_id] is not None or not rq:
            return
        if len(rq) == 1:  # the common case: nothing to arbitrate
            nxt = rq.pop()
        else:
            # min(rq, key=sort_key) without a method call per element:
            # order by (effective priority, FIFO arrival), first occurrence
            # wins ties.  prio_boost (priority inheritance) substitutes for
            # the base priority while set.
            nxt = rq[0]
            bp = nxt.prio if nxt.prio_boost is None else nxt.prio_boost
            bs = nxt.rq_seq
            for t in rq:
                p = t.prio if t.prio_boost is None else t.prio_boost
                if p < bp or (p == bp and t.rq_seq < bs):
                    nxt = t
                    bp = p
                    bs = t.rq_seq
            rq.remove(nxt)
        core = self.cores[core_id]
        prev = core.last_thread
        switch_cost = 0
        if prev is not nxt and prev is not None:
            switch_cost = self.machine.spec.context_switch_ns
            core.ctx_switches += 1
            self._maybe_inject_hook(core, Keypoint.CTX_SWITCH, prev, nxt)
        self._cur[core_id] = nxt
        core.last_thread = nxt
        nxt.state = TState.RUNNING
        if nxt.prio == Prio.NORMAL:
            self._arm_timer(core)
        engine = self.engine
        t = nxt.instr_start = engine.now + switch_cost
        if engine.claim(t):
            self._advance(core_id, nxt)
        else:
            engine.post(switch_cost, self._advance, core_id, nxt)

    def _release_core(self, core_id: int) -> None:
        self._cur[core_id] = None
        self._preempt[core_id] = False
        if self._rqs[core_id]:
            self.engine.post_soon(self._dispatch, core_id)

    # -- keypoint hook injection ---------------------------------------
    def _maybe_inject_hook(
        self, core: CoreState, kind: Keypoint, prev: Optional[SimThread], nxt: Optional[SimThread]
    ) -> None:
        if self.progression_hook is None or core.hook_live:
            return
        if kind is Keypoint.CTX_SWITCH:
            # The idle loop already runs the hook; don't double up around it,
            # and never re-inject around a hook thread's own switches.
            for t in (prev, nxt):
                if t is not None and (t.prio != Prio.NORMAL or t.is_hook):
                    return
        now = self.engine.now
        if now - core.last_inject < self.ctx_hook_min_interval_ns:
            return
        core.last_inject = now
        self._spawn_hook(core, kind, kind.value)
        if self.tracer.enabled:
            self.tracer.emit(now, "sched", f"core{core.id}", f"inject {kind.value} hook")

    def inject_keypoint(self, core_id: int) -> None:
        """Force a progression keypoint on a core as soon as possible.

        Used by the preemptive-task extension: the injected SYSTEM-priority
        hook preempts whatever normal thread is computing there at its next
        instruction/slice boundary."""
        core = self.cores[core_id]
        if self.progression_hook is None or core.hook_live:
            return
        self._spawn_hook(core, Keypoint.CTX_SWITCH, "inject")
        # behave like an interrupt: do not wait for a slice boundary
        self.interrupt_compute(core_id)

    def _spawn_hook(self, core: CoreState, kind: Keypoint, label: str) -> None:
        """Spawn a one-shot SYSTEM-priority thread running the progression
        hook once on ``core``, counted and timed as a ``kind`` keypoint."""
        core.hook_live = True
        core.keypoint_counts[kind] += 1
        hook = self.progression_hook
        hist = self.keypoint_ns[kind]

        def body(ctx: ThreadCtx) -> Generator[Instr, Any, Any]:
            t0 = self.engine.now
            yield from hook(ctx.core_id)
            hist.record(self.engine.now - t0)

        t = self.spawn(body, core.id, name=f"hook-{label}@{core.id}", prio=Prio.SYSTEM)
        t.is_hook = True

    # -- timer interrupts ------------------------------------------------
    def _arm_timer(self, core: CoreState) -> None:
        if core.timer_armed:
            return
        core.timer_armed = True
        self.engine.post(self.machine.spec.timer_quantum_ns, self._timer_tick, core.id)

    def _timer_tick(self, core_id: int) -> None:
        core = self.cores[core_id]
        core.timer_armed = False
        cur = self._cur[core_id]
        if cur is None or cur.prio != Prio.NORMAL:
            return  # re-armed lazily when a normal thread runs again
        core.timer_ticks += 1
        self._maybe_inject_hook(core, Keypoint.TIMER, cur, cur)
        # Round-robin among ready threads at or above the current priority.
        contender = False
        ready = TState.READY
        cur_prio = cur.prio
        for t in self._rqs[core_id]:
            if t.state is ready and t.prio <= cur_prio:
                contender = True
                break
        if contender:
            self._preempt[core_id] = True
            if cur.spin_cancel is not None:
                # Spinners have no instruction boundary; the timer is what
                # preempts a real busy-wait loop.  Cancel the registration
                # and re-issue the spin when the thread runs again.
                self._cancel_spin(core_id, cur)
        self._arm_timer(core)

    # ------------------------------------------------------------------
    # instruction interpreter
    # ------------------------------------------------------------------
    def _advance(self, cid: int, thread: SimThread) -> None:
        # The most frequently fired callback in the simulator: everything
        # it touches is either on the thread or in a flat per-core list.
        if self._cur[cid] is not thread or thread.state is not _RUNNING:
            return  # stale event (thread moved on)
        # An in-flight Compute slice schedules _advance directly as its
        # completion callback (no trampoline): the slice is over.
        thread.compute_event = None
        engine = self.engine
        # One pass per instruction.  When the engine lets the thread's
        # next step run in place (Engine.claim: nothing can fire before
        # it), the loop goes round instead of queueing another _advance.
        while True:
            if self._preempt[cid] and self._should_preempt(cid, thread):
                self._preempt_thread(cid, thread)
                return
            instr = thread.pending_instr
            if instr is not None:
                thread.pending_instr = None
            else:
                try:
                    instr = thread.gen.send(thread.resume_value)
                except StopIteration as stop:
                    thread.result = stop.value
                    self._finish(cid, thread)
                    return
                thread.resume_value = None
                skew = self.core_skew
                if skew is not None and instr.__class__ is Compute:
                    # Slow-core fault: stretch *fresh* Compute work only —
                    # the pending_instr path above re-issues remainders
                    # that are already in skewed units (and shared
                    # instruction instances are never mutated, so build a
                    # new one).
                    f = skew[cid]
                    if f is not None:
                        instr = Compute(instr.ns * f[0] // f[1])
            now = engine.now
            thread.instr_start = now
            # The single hottest instruction, a Compute slice, is handled
            # here rather than in _exec: _advance runs once per
            # instruction.
            if instr.__class__ is Compute:
                ns = instr.ns
                quantum = self._quantum_ns
                slice_ns = ns if ns <= quantum else quantum
                remaining = ns - slice_ns
                if remaining > 0:
                    thread.pending_instr = Compute(remaining)
                thread.cpu_ns += slice_ns
                self._busy[cid] += slice_ns
                if engine.claim(now + slice_ns):
                    continue
                ev = engine.schedule(slice_ns, self._advance, cid, thread)
                thread.compute_event = (ev, now, slice_ns)
                return
            if not self._exec(cid, thread, instr):
                return

    def _should_preempt(self, cid: int, thread: SimThread) -> bool:
        """Preempt when a higher-priority thread waits, or — once the timer
        has requested rotation by setting ``preempt_pending`` — when a
        same-priority thread waits (FIFO requeueing makes this fair)."""
        ready = TState.READY
        prio = thread.prio if thread.prio_boost is None else thread.prio_boost
        for t in self._rqs[cid]:
            if t.state is ready:
                p = t.prio if t.prio_boost is None else t.prio_boost
                if p <= prio:
                    return True
        return False

    def _preempt_thread(self, cid: int, thread: SimThread) -> None:
        self._preempt[cid] = False
        thread.state = TState.READY
        thread.rq_seq = self._rr_seq
        self._rr_seq += 1
        self._rqs[cid].append(thread)
        self._cur[cid] = None
        self.engine.post_soon(self._dispatch, cid)

    def _cancel_spin(self, cid: int, thread: SimThread) -> None:
        """Preempt a busy-spinning thread (timer/priority): deregister its
        waiter entry and arrange for the spin instruction to be re-issued
        when the thread is dispatched again.  No-op if the grant/wake is
        already in flight (the thread will proceed imminently)."""
        cancel_fn, instr = thread.spin_cancel
        if not cancel_fn():
            return
        thread.spin_cancel = None
        thread.pending_instr = instr
        self._charge(cid, thread, self.engine.now - thread.instr_start)
        lock = getattr(instr, "lock", None)
        if lock is not None:
            # Priority inheritance: if the lock's owner sits READY at a
            # lower priority (descheduled mid-critical-section, or between
            # its grant and the generator resuming), the cancelled spinner
            # would starve it forever via the run-queue priority order.
            # Boost the holder to the spinner's priority until it releases.
            holder = getattr(lock, "holder_thread", None)
            if (
                holder is not None
                and holder.state is TState.READY
                and thread.prio < holder.prio
                and holder.prio_boost is None
            ):
                holder.prio_boost = thread.prio
        self._preempt_thread(cid, thread)

    def _charge(self, cid: int, thread: SimThread, ns: int) -> None:
        thread.cpu_ns += ns
        self._busy[cid] += ns

    def _resume_after(self, cid: int, thread: SimThread, cost: int) -> bool:
        """Finish the current instruction ``cost`` ns from now.  True when
        the thread's next step runs in place (the caller's _advance loop
        goes on), False when it is queued."""
        thread.cpu_ns += cost
        self._busy[cid] += cost
        engine = self.engine
        if engine.claim(engine.now + cost):
            return True
        engine.post(cost, self._advance, cid, thread)
        return False

    def _spun(self, cid: int, thread: SimThread, start: int) -> None:
        """A busy-wait ends (a lock grant or a set flag reaches the
        spinner): charge the spin since ``start`` and resume the thread."""
        thread.spin_cancel = None
        if thread.state is not _RUNNING or self._cur[cid] is not thread:  # pragma: no cover
            # defensive: _cancel_spin deregisters a spinner it deschedules
            raise RuntimeError(f"a spin ended for descheduled thread {thread.name!r}")
        engine = self.engine
        now = engine.now
        spun_ns = now - start
        thread.cpu_ns += spun_ns
        self._busy[cid] += spun_ns
        if engine.claim(now):
            self._advance(cid, thread)
        else:
            engine.post_soon(self._advance, cid, thread)

    def interrupt_compute(self, core_id: int) -> bool:
        """Interrupt the current thread's in-flight Compute slice (the
        injected-keypoint / preemptive-task path).  The unused part of the
        slice is un-charged and re-issued as a pending instruction; the
        thread is requeued READY.  Returns True if something was
        interrupted."""
        cur = self._cur[core_id]
        if cur is None or cur.compute_event is None:
            return False
        ev, started, slice_ns = cur.compute_event
        if not ev.alive:
            return False
        ev.cancel()
        cur.compute_event = None
        elapsed = self.engine.now - started
        unused = slice_ns - elapsed
        self._charge(core_id, cur, -unused)
        carry = 0
        if isinstance(cur.pending_instr, Compute):
            carry = cur.pending_instr.ns
        total = unused + carry
        cur.pending_instr = Compute(total) if total > 0 else None
        self._preempt_thread(core_id, cur)
        return True

    def _block(self, cid: int, thread: SimThread, reason: str) -> None:
        thread.state = TState.BLOCKED
        thread.blocked_on = reason
        self._release_core(cid)

    def _finish(self, cid: int, thread: SimThread) -> None:
        thread.state = TState.DONE
        thread.prio_boost = None
        if self.tracer.enabled:
            self.tracer.emit(
                self.engine.now, "sched", f"core{cid}", f"finish {thread.name}"
            )
        if thread.is_hook:
            self.cores[cid].hook_live = False
        if thread.prio == Prio.NORMAL:
            self.normal_live -= 1
            if self.normal_live == 0:
                self._nudge_idles()
        thread.done_flag.set(cid)
        self._release_core(cid)

    def _nudge_idles(self) -> None:
        """Wake sleeping idle loops so they can re-evaluate and park."""
        for core in self.cores:
            idle = core.idle_thread
            if (
                idle is not None
                and idle.state is TState.BLOCKED
                and idle.sleep_event is not None
            ):
                idle.sleep_event.cancel()
                idle.sleep_event = None
                self.wake(idle)

    # -- per-instruction handlers ----------------------------------------
    def _exec(self, cid: int, thread: SimThread, instr: Instr) -> bool:
        """Interpret one instruction; True when the thread's next step
        runs in place (see _resume_after), False when it waits on an
        event or gave up the core."""
        # Exact-type dispatch: every instruction class derives from Instr
        # directly and is never subclassed, and ``__class__ is X`` beats an
        # isinstance() chain on the hottest interpreter path.  The branches
        # are ordered hottest first (Compute never gets here: _advance
        # slices it); anything else (a subclassed instruction included) is
        # a TypeError.
        cls = instr.__class__
        if cls is Acquire:
            lock = instr.lock
            engine = self.engine
            start = engine.now
            delay = lock.try_acquire(cid, thread)
            if delay is not None:
                # Uncontended: the grant fires ``delay`` ns from now and
                # posts the resume at once, so both run in place when
                # nothing queued can fire before them.
                if engine.claim(start + delay, 2):
                    thread.cpu_ns += delay
                    self._busy[cid] += delay
                    return True
                engine.post(delay, self._spun, cid, thread, start)
                return False
            waiter = lock.wait(cid, lambda: self._spun(cid, thread, start), thread)
            thread.spin_cancel = (lambda: lock.cancel_waiter(waiter), instr)
            holder = lock.holder_thread
            if (
                holder is not None
                and holder.core_id == cid
                and holder.state is TState.READY
                and thread.prio < holder.prio
            ):
                # Futile spin: the lock's owner was descheduled on THIS
                # core, so spinning can only starve it (priority-
                # inversion livelock).  Inherit: boost the holder to the
                # spinner's priority and yield the CPU to it.
                holder.prio_boost = thread.prio
                self._cancel_spin(cid, thread)
            return False
        elif cls is Release:
            if thread.prio_boost is not None:
                thread.prio_boost = None  # inherited priority ends here
            return self._resume_after(cid, thread, instr.lock.release(cid))
        elif cls is SetFlag:
            return self._resume_after(cid, thread, instr.flag.set(cid))
        elif cls is Sleep:
            # The handle stays cancellable (doorbells cancel it).  An idle
            # thread's sleep is what the quiescence leap elides; the
            # engine, not this handler, decides when to try.
            thread.sleep_event = self.engine.schedule(instr.ns, self._sleep_wake, thread)
            self._block(cid, thread, "sleep")
        elif cls is YieldCPU:
            # a voluntary yield requeues exactly like a preemption
            self._preempt_thread(cid, thread)
        elif cls is SpinOn:
            flag = instr.flag
            cost = flag.read(cid)
            if flag.is_set:
                return self._resume_after(cid, thread, cost)
            start = self.engine.now
            entry = flag.add_spinner(cid, lambda: self._spun(cid, thread, start))
            thread.spin_cancel = (lambda: flag.remove_spinner(entry), instr)
        elif cls is BlockOn:
            cost = instr.flag.read(cid)
            if instr.flag.is_set:
                return self._resume_after(cid, thread, cost)
            self._charge(cid, thread, cost)
            instr.flag.add_blocker(thread)
            self._block(cid, thread, f"flag:{instr.flag.label}")
        elif cls is Park:
            if thread is not self.cores[cid].idle_thread:
                raise RuntimeError("only the idle thread may Park")
            self._block(cid, thread, "parked")
        elif cls is MutexAcquire:
            cost = instr.mutex.acquire(thread)
            if cost is not None:
                return self._resume_after(cid, thread, cost)
            self._block(cid, thread, f"mutex:{instr.mutex.name}")
        elif cls is MutexRelease:
            return self._resume_after(cid, thread, instr.mutex.release(thread))
        elif cls is BlockOnAny:
            cost = 0
            for f in instr.flags:
                cost += f.read(cid)
                if f.is_set:
                    return self._resume_after(cid, thread, cost)
            self._charge(cid, thread, cost)
            for f in instr.flags:
                f.add_blocker(thread)
            thread.multi_flags = instr.flags
            self._block(cid, thread, f"any-of-{len(instr.flags)}-flags")
        else:
            raise TypeError(f"unknown instruction {instr!r} from {thread!r}")
        return False

    def _sleep_wake(self, thread: SimThread) -> None:
        thread.sleep_event = None
        self.wake(thread)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def _count_hard_blocked(self) -> int:
        """Threads blocked with no pending event to free them (deadlock
        candidates once the queue drains).  Parked idle loops and sleepers
        are excluded — sleepers hold a live timer event anyway."""
        n = 0
        for t in self.threads:
            if t.state is TState.BLOCKED and t.sleep_event is None:
                if t.prio == Prio.IDLE:
                    continue
                n += 1
        return n

    def blocked_threads(self) -> list[SimThread]:
        return [
            t
            for t in self.threads
            if t.state is TState.BLOCKED and t.prio != Prio.IDLE and t.sleep_event is None
        ]

    def keypoint_count(self, kind: Keypoint) -> int:
        return sum(c.keypoint_counts[kind] for c in self.cores)

    def core_busy_ns(self) -> list[int]:
        return list(self._busy)

    def core_metrics(self) -> dict[str, Any]:
        """Per-core scheduler counters for the metrics registry.

        Flattens to ``sched.<node>.core<N>.busy_ns`` etc.; keypoint
        counts are broken out per kind (``keypoints.idle`` ...), and
        per-keypoint pass-duration histograms summarize under
        ``keypoint_ns.<kind>.p50/p99/...``.
        """
        out: dict[str, Any] = {}
        for core in self.cores:
            out[f"core{core.id}"] = {
                "busy_ns": core.busy_ns,
                "ctx_switches": core.ctx_switches,
                "timer_ticks": core.timer_ticks,
                "keypoints": {k.value: n for k, n in core.keypoint_counts.items()},
            }
        out["keypoint_ns"] = {k.value: h for k, h in self.keypoint_ns.items()}
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Scheduler {self.name} cores={len(self.cores)} live={self.normal_live}>"
