"""The fault injector: runtime hooks that make a FaultPlan happen.

One :class:`FaultInjector` per run.  It owns the per-fault-type RNG
streams (derived from the plan seed, see :mod:`repro.faults.plan`), the
aggregate :class:`FaultStats` counters the metrics registry scrapes
under ``faults.*``, and the attach points:

* **net** — ``Nic.post_send`` routes deliveries through
  :meth:`FaultInjector.deliver`, which may drop a transmission (arming
  the driver's :class:`~repro.net.driver.RetransmitPath` timeout) or
  delay it past its natural arrival (reorder);
* **slow cores** — the scheduler's ``core_skew`` table stretches every
  fresh ``Compute`` on the listed cores;
* **lock-holder preemption** — attached ``SpinLock``/``Mutex`` objects
  call :meth:`hold_preempt_ns` on each grant;
* **cancel storms** — engine-driven ticks pick queued victims and fire
  ``PIOMan.cancel`` at them half an interval later (racing in-flight
  execution on purpose).

Every hook is guarded by the owning object's ``faults``/``core_skew``
attribute being non-None, so a run without an injector executes exactly
the pre-fault instruction stream — bit-identical, not merely equivalent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.faults.plan import (
    CANCEL_STREAM,
    LOCK_STREAM,
    NET_STREAM,
    FaultPlan,
)
from repro.net.driver import RetransmitPath, default_retransmit_timeout_ns
from repro.sim.rng import Rng
from repro.sim.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.manager import PIOMan
    from repro.net.frame import Frame
    from repro.net.nic import Nic
    from repro.threads.scheduler import Scheduler


class FaultStats:
    """Aggregate fault counters, scraped under ``faults.*``."""

    __slots__ = (
        "drops",
        "retransmits",
        "reorders",
        "forced_deliveries",
        "lock_preemptions",
        "preempt_ns_total",
        "cancel_attempts",
        "cancel_hits",
        "slow_cores",
    )

    def __init__(self) -> None:
        self.drops = 0
        self.retransmits = 0
        self.reorders = 0
        #: drops suppressed by the per-frame retry cap (progress guarantee)
        self.forced_deliveries = 0
        self.lock_preemptions = 0
        self.preempt_ns_total = 0
        self.cancel_attempts = 0
        self.cancel_hits = 0
        #: how many cores run with a frequency-skew multiplier
        self.slow_cores = 0


class FaultInjector:
    """Runtime for one :class:`~repro.faults.plan.FaultPlan`."""

    def __init__(self, plan: FaultPlan, *, tracer: Tracer = NULL_TRACER) -> None:
        self.plan = plan
        self.tracer = tracer
        self.stats = FaultStats()
        self.engine = None  # bound at install time
        base = Rng(plan.seed)
        # One independent stream per fault type: enabling one fault never
        # perturbs another's draw sequence (docs/FAULTS.md).
        self._net_rng = base.fork(NET_STREAM) if plan.net is not None else None
        self._lock_rng = (
            base.fork(LOCK_STREAM) if plan.lock_preemption is not None else None
        )
        self._cancel_rng = (
            base.fork(CANCEL_STREAM) if plan.cancel_storm is not None else None
        )
        #: nic name -> RetransmitPath (timeout derived per NIC driver)
        self._retx: dict[str, RetransmitPath] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def install(
        self,
        *,
        scheduler: Optional["Scheduler"] = None,
        pioman: Optional["PIOMan"] = None,
        nics: Iterable["Nic"] = (),
        registry=None,
        tracer: Optional[Tracer] = None,
    ) -> "FaultInjector":
        """Attach this injector's enabled faults to live components.

        Call once per node (or once for a single-machine world); only
        the plan's non-None fault types hook anything.  Returns self for
        chaining."""
        if tracer is not None:
            self.tracer = tracer
        if scheduler is not None:
            if self.engine is None:
                self.engine = scheduler.engine
            if self.plan.slow_cores is not None:
                table = self._skew_table(len(scheduler.cores))
                scheduler.core_skew = table
                self.stats.slow_cores += sum(1 for f in table if f is not None)
        if pioman is not None:
            if self.engine is None:
                self.engine = pioman.engine
            if self.plan.lock_preemption is not None:
                for queue in pioman.hierarchy.queues():
                    queue.lock.faults = self
                    mutex = getattr(queue, "mutex", None)
                    if mutex is not None:  # MutexTaskQueue variant
                        mutex.faults = self
            self.start_cancel_storm(pioman)
        if self.plan.net is not None:
            for nic in nics:
                if self.engine is None:
                    self.engine = nic.fabric.engine
                nic.faults = self
        if registry is not None:
            registry.register("faults", self.stats)
        return self

    # ------------------------------------------------------------------
    # (a) NIC drop / reorder + timeout retransmit
    # ------------------------------------------------------------------
    def deliver(self, nic: "Nic", frame: "Frame", arrive_at: int) -> None:
        """Fault-aware stand-in for ``fabric.deliver`` (called by the NIC
        transmit path when this injector is attached)."""
        nf = self.plan.net
        rng = self._net_rng
        path = self._retx.get(nic.name)
        if path is None:
            timeout = nf.retransmit_timeout_ns or default_retransmit_timeout_ns(
                nic.driver
            )
            path = RetransmitPath(timeout, nf.max_retries)
            self._retx[nic.name] = path
        if nf.drop_p > 0.0 and rng.random() < nf.drop_p:
            if path.may_drop(frame):
                timeout = path.note_drop(frame)
                nic.stats.drops += 1
                self.stats.drops += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        nic.fabric.engine.now, "fault", nic.name,
                        f"drop {frame.kind}", phase="fault", fault="drop",
                    )
                nic.fabric.engine.post(timeout, self._retransmit, nic, frame)
                return
            # retry budget exhausted: force the delivery through
            self.stats.forced_deliveries += 1
        path.clear(frame)
        if nf.reorder_p > 0.0 and rng.random() < nf.reorder_p:
            extra = rng.randint(nf.reorder_ns // 2, max(nf.reorder_ns, 1))
            arrive_at += extra
            nic.stats.reorders += 1
            self.stats.reorders += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    nic.fabric.engine.now, "fault", nic.name,
                    f"reorder {frame.kind} +{extra}ns", phase="fault",
                    fault="reorder",
                )
        nic.fabric.deliver(nic, frame, arrive_at)

    def _retransmit(self, nic: "Nic", frame: "Frame") -> None:
        """Loss-detection timeout fired: re-post the frame.

        Goes back through ``post_send`` so the retransmission pays TX
        serialization and wire time again (and may itself be dropped,
        bounded by the retry cap)."""
        nic.stats.retransmits += 1
        self.stats.retransmits += 1
        if self.tracer.enabled:
            now = nic.fabric.engine.now
            self.tracer.emit(
                now, "fault", nic.name,
                f"retransmit {frame.kind}", phase="fault", fault="retransmit",
            )
            if frame.trace_tx is not None:
                # Edge from the lost post to the timeout firing, then make
                # the retransmit node the causal cursor so the re-post's
                # own edge chains off it.
                retx = f"F:{frame.trace_fid}/retx{frame.trace_txn}"
                self.tracer.edge(now, nic.name, "retransmit",
                                 frame.trace_tx, retx, frame.trace_tx_time)
                prev = self.tracer.cursor
                self.tracer.cursor = retx
                try:
                    nic.post_send(frame)
                finally:
                    self.tracer.cursor = prev
                return
        nic.post_send(frame)

    # ------------------------------------------------------------------
    # (b) slow cores
    # ------------------------------------------------------------------
    def _skew_table(self, ncores: int):
        """Per-core ``(num, den)`` compute multipliers (None = nominal)."""
        sc = self.plan.slow_cores
        num = max(1, round(sc.factor * 1024))
        table: list = [None] * ncores
        for core in sc.cores:
            if 0 <= core < ncores:
                table[core] = (num, 1024)
        return table

    # ------------------------------------------------------------------
    # (c) lock-holder preemption
    # ------------------------------------------------------------------
    def hold_preempt_ns(self, core: int) -> int:
        """Descheduling window to add to a lock grant (0 = not this time)."""
        lp = self.plan.lock_preemption
        if self._lock_rng.random() >= lp.p:
            return 0
        window = lp.window_ns
        self.stats.lock_preemptions += 1
        self.stats.preempt_ns_total += window
        if self.tracer.enabled and self.engine is not None:
            self.tracer.emit(
                self.engine.now, "fault", f"core{core}",
                f"lock-holder preempted {window}ns", phase="fault",
                fault="lock_preempt", core=core,
            )
        return window

    # ------------------------------------------------------------------
    # (d) cancellation storms
    # ------------------------------------------------------------------
    def start_cancel_storm(self, pioman: "PIOMan") -> None:
        """Arm the storm ticks against ``pioman`` (no-op if not planned)."""
        cs = self.plan.cancel_storm
        if cs is None or cs.count <= 0:
            return
        pioman.engine.post(
            cs.start_ns + cs.interval_ns, self._storm_tick, pioman, cs.count
        )

    def _storm_tick(self, pioman: "PIOMan", remaining: int) -> None:
        victims = [t for q in pioman.hierarchy.queues() for t in q._tasks]
        cs = self.plan.cancel_storm
        if victims:
            task = self._cancel_rng.choice(victims)
            # Fire the cancel half an interval later: by then the victim
            # may have been dequeued and be mid-run — the in-flight race
            # the manager must survive without resurrecting the task.
            pioman.engine.post(cs.interval_ns // 2, self._storm_fire, pioman, task)
        if remaining > 1:
            pioman.engine.post(cs.interval_ns, self._storm_tick, pioman, remaining - 1)

    def _storm_fire(self, pioman: "PIOMan", task) -> None:
        self.stats.cancel_attempts += 1
        if pioman.cancel(task):
            self.stats.cancel_hits += 1
            if self.tracer.enabled and self.engine is not None:
                self.tracer.emit(
                    self.engine.now, "fault", "storm",
                    f"cancelled {task.name or id(task)}", phase="fault",
                    fault="cancel",
                )
