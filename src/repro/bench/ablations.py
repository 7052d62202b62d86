"""Ablation workloads for the design choices DESIGN.md calls out.

* A1 — hierarchical queues vs one flat global list (§III motivation);
* A2 — spinlocks vs blocking mutexes on the queues (§IV-A);
* A3 — Algorithm 2's double-checked locking vs always-lock;
* A4 — lock-free (CAS) queues, the paper's future work (§VI);
* A5 — fixed-period idle re-polling vs :class:`repro.core.variants.
  IdleBackoff` (exponential stretch after consecutive empty passes);
* A6 — a clean run vs the same run under injected faults
  (:mod:`repro.faults`): packet loss/reorder plus lock-holder
  preemption, measuring what the retransmit path and the scheduler's
  robustness machinery cost in makespan.

The shared workload is an *affinity burst*: core #0 submits one task per
remote core back-to-back, then waits for all of them — the pattern a
communication library generates when it fans polling/submission work out
across the machine.  The hierarchy executes the burst through independent
per-core queues; the degraded variants funnel everything through shared
structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.manager import PIOMan
from repro.core.progress import piom_wait
from repro.core.queues import TaskQueue
from repro.core.task import LTask
from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.sync.stats import LockStats
from repro.threads.scheduler import Scheduler
from repro.topology.cpuset import CpuSet
from repro.topology.machine import Machine


@dataclass
class BurstResult:
    """Mean virtual ns per burst plus queue-layer statistics."""

    label: str
    mean_burst_ns: float
    lock_sections: int
    lock_contended: int
    executions_by_core: dict[int, int]


def run_affinity_burst(
    machine: Machine,
    *,
    hierarchical: bool = True,
    queue_factory: Callable = TaskQueue,
    bursts: int = 60,
    seed: int = 5,
    label: str = "",
) -> BurstResult:
    """Submit one task per non-submitting core, wait for all; repeat."""
    engine = Engine()
    sched = Scheduler(machine, engine, rng=Rng(seed))
    pioman = PIOMan(
        machine, engine, sched, hierarchical=hierarchical, queue_factory=queue_factory
    )
    times: list[int] = []

    def submitter(ctx):
        for burst in range(bursts):
            t0 = ctx.now
            tasks = []
            for c in range(1, machine.ncores):
                task = LTask(None, cpuset=CpuSet.single(c), name=f"b{burst}c{c}")
                yield from pioman.submit(0, task)
                tasks.append(task)
            for task in tasks:
                yield from piom_wait(pioman, 0, task, mode="spin")
            times.append(ctx.now - t0)

    sched.spawn(submitter, 0, name="burst")
    engine.run(until=bursts * machine.ncores * 1_000_000)
    if len(times) < bursts:
        raise RuntimeError(f"affinity burst stalled after {len(times)}/{bursts}")
    steady = times[len(times) // 5 :]
    agg = LockStats()
    for q in pioman.hierarchy.queues():
        agg.acquires += q.lock.stats.acquires
        agg.contended += q.lock.stats.contended
        agg.handoffs += q.lock.stats.handoffs
    return BurstResult(
        label=label or ("hierarchical" if hierarchical else "flat"),
        mean_burst_ns=sum(steady) / len(steady),
        lock_sections=agg.acquires,
        lock_contended=agg.contended,
        executions_by_core=dict(pioman.stats.executions_by_core),
    )


@dataclass
class BackoffResult:
    """One A5 leg: idle-pass volume vs task wakeup latency."""

    label: str
    idle_passes: int
    executions: int
    mean_wakeup_ns: float
    max_wakeup_ns: int


def backoff_leg(
    *,
    machine: str = "kwak",
    backoff: bool = False,
    factor: int = 2,
    free_passes: int = 2,
    max_ns: int = 64_000,
    ntasks: int = 40,
    gap_us: int = 30,
    seed: int = 11,
    label: str = "",
) -> BackoffResult:
    """One idle-backoff leg: sparse submissions into a spin-polling machine.

    Core #0 submits one single-core task every ``gap_us`` while every
    other core spin-polls; between submissions each pass comes up empty.
    The leg reports how many idle passes the run burned and what the
    submit→complete wakeup latency looked like — the two sides of the
    backoff trade.  (Doorbells cancel a stretched sleep and reset the
    streak, so with doorbell delivery the latency cost stays small; the
    policy's risk is work that arrives without one.)
    """
    from repro.core.variants import IdleBackoff
    from repro.threads.scheduler import Keypoint
    from repro.topology.builder import MACHINES

    m = MACHINES[machine]()
    engine = Engine()
    policy = (
        IdleBackoff(factor=factor, free_passes=free_passes, max_ns=max_ns)
        if backoff
        else None
    )
    sched = Scheduler(m, engine, rng=Rng(seed), true_spin=True, idle_backoff=policy)
    pioman = PIOMan(m, engine, sched)
    gap = gap_us * 1_000

    def submitter(ctx):
        from repro.threads.instructions import Compute

        tasks = []
        for i in range(ntasks):
            yield Compute(gap)
            task = LTask(
                None, cpuset=CpuSet.single(1 + i % (m.ncores - 1)), name=f"bk{i}"
            )
            yield from pioman.submit(0, task)
            tasks.append(task)
        for task in tasks:
            yield from piom_wait(pioman, 0, task, mode="spin")

    sched.spawn(submitter, 0, name="backoff-driver")
    engine.run(until=ntasks * (gap + 2_000_000))
    if pioman.stats.tasks_completed < ntasks:
        raise RuntimeError(
            f"backoff leg stalled at {pioman.stats.tasks_completed}/{ntasks}"
        )
    lat = pioman.latency.submit_to_complete
    return BackoffResult(
        label=label or ("backoff" if backoff else "fixed"),
        idle_passes=sum(
            c.keypoint_counts.get(Keypoint.IDLE, 0) for c in sched.cores
        ),
        executions=pioman.stats.executions,
        mean_wakeup_ns=lat.mean(),
        max_wakeup_ns=lat.max,
    )


# ----------------------------------------------------------------------
# the A1-A6 suite (the ablations artifact of repro.bench.targets)
# ----------------------------------------------------------------------
def _queue_factory(queue: str) -> Callable:
    """Resolve a queue variant by name."""
    from repro.core.queues import AlwaysLockTaskQueue
    from repro.core.variants import LockFreeTaskQueue, MutexTaskQueue

    factories = {
        "spin": TaskQueue,
        "mutex": MutexTaskQueue,
        "always": AlwaysLockTaskQueue,
        "lockfree": LockFreeTaskQueue,
    }
    try:
        return factories[queue]
    except KeyError:
        raise ValueError(
            f"unknown queue variant {queue!r} (one of {sorted(factories)})"
        ) from None


def burst_leg(
    *,
    machine: str = "kwak",
    hierarchical: bool = True,
    queue: str = "spin",
    bursts: int = 60,
    seed: int = 5,
    label: str = "",
) -> BurstResult:
    """One :func:`run_affinity_burst` leg on a named machine."""
    from repro.topology.builder import MACHINES

    return run_affinity_burst(
        MACHINES[machine](),
        hierarchical=hierarchical,
        queue_factory=_queue_factory(queue),
        bursts=bursts,
        seed=seed,
        label=label,
    )


def queue_leg(
    *,
    machine: str = "kwak",
    queue: str = "spin",
    reps: int = 200,
    seed: int = 9,
    label: str = "",
):
    """One global-queue ``measure_queue`` leg on a named machine."""
    from repro.bench.task_microbench import measure_queue
    from repro.topology.builder import MACHINES

    m = MACHINES[machine]()
    return measure_queue(
        m, m.all_cores(), label=label or queue, reps=reps, seed=seed,
        queue_factory=_queue_factory(queue),
    )


@dataclass
class FaultsResult:
    """One A6 leg: makespan + fault counters of a 2-node exchange."""

    label: str
    makespan_ns: int
    completed: int
    drops: int
    retransmits: int
    reorders: int
    lock_preemptions: int


def faults_leg(
    *,
    faulty: bool = False,
    msgs: int = 16,
    size: int = 4096,
    seed: int = 31,
    label: str = "",
) -> FaultsResult:
    """One A6 leg: an eager-message exchange, clean or under faults.

    ``msgs`` eager messages (below the rendezvous threshold, so every
    payload crosses the wire through ``Nic.post_send`` where drops and
    reorders bite) between two nodes.  The faulty leg layers packet loss,
    reordering and lock-holder preemption on the *same* seeded world; the
    makespan delta is the price of surviving a hostile network.
    """
    from repro.cluster.cluster import Cluster
    from repro.faults.plan import FaultPlan, LockPreemption, NetFaults
    from repro.mpi import MadMPI

    plan = None
    if faulty:
        plan = FaultPlan(
            seed=seed,
            net=NetFaults(drop_p=0.12, reorder_p=0.2),
            lock_preemption=LockPreemption(p=0.05, window_ns=30_000),
        )
    cl = Cluster(2, seed=seed, faults=plan)
    mpi = MadMPI(cl)
    c0, c1 = mpi.comm(0), mpi.comm(1)
    end: dict[str, int] = {}

    def sender(ctx):
        for i in range(msgs):
            yield from c0.send(ctx.core_id, 1, i, size, payload=b"x")
        end["send"] = ctx.now

    def receiver(ctx):
        for i in range(msgs):
            yield from c1.recv(ctx.core_id, 0, i)
        end["recv"] = ctx.now

    cl.nodes[0].scheduler.spawn(sender, 0, name="a6-send")
    cl.nodes[1].scheduler.spawn(receiver, 0, name="a6-recv")
    cl.run(until=msgs * 10_000_000 + 100_000_000)
    if len(end) < 2:
        raise RuntimeError(f"faults leg stalled ({end})")
    stats = [fi.stats for fi in cl.fault_injectors.values()]
    return FaultsResult(
        label=label or ("faulty" if faulty else "clean"),
        makespan_ns=max(end.values()),
        completed=msgs,
        drops=sum(s.drops for s in stats),
        retransmits=sum(s.retransmits for s in stats),
        reorders=sum(s.reorders for s in stats),
        lock_preemptions=sum(s.lock_preemptions for s in stats),
    )


@dataclass
class AblationSuite:
    """All twelve legs of the A1-A6 ablation matrix on kwak."""

    a1_hier: BurstResult
    a1_flat: BurstResult
    a2_spin: BurstResult
    a2_mutex: BurstResult
    a3_checked: object
    a3_always: object
    a4_locked: object
    a4_lockfree: object
    a5_fixed: BackoffResult
    a5_backoff: BackoffResult
    a6_clean: FaultsResult
    a6_faulty: FaultsResult

    def format(self) -> str:
        us = 1000.0
        lines = [
            "Ablations (kwak): affinity burst + global-queue round-trip",
            f"A1 hierarchy    hierarchical {self.a1_hier.mean_burst_ns / us:>8.1f} us"
            f"   flat {self.a1_flat.mean_burst_ns / us:>8.1f} us"
            f"   ({self.a1_flat.mean_burst_ns / self.a1_hier.mean_burst_ns:.2f}x)",
            f"A2 lock kind    spinlock     {self.a2_spin.mean_burst_ns / us:>8.1f} us"
            f"   mutex {self.a2_mutex.mean_burst_ns / us:>7.1f} us"
            f"   ({self.a2_mutex.mean_burst_ns / self.a2_spin.mean_burst_ns:.2f}x)",
            f"A3 double-check double-check {self.a3_checked.mean_ns / us:>8.2f} us"
            f"   always-lock {self.a3_always.mean_ns / us:>5.2f} us"
            f"   ({self.a3_always.mean_ns / self.a3_checked.mean_ns:.2f}x)",
            f"A4 lock-free    spinlock     {self.a4_locked.mean_ns / us:>8.2f} us"
            f"   CAS {self.a4_lockfree.mean_ns / us:>13.2f} us"
            f"   ({self.a4_locked.mean_ns / self.a4_lockfree.mean_ns:.2f}x better)",
            f"A5 idle backoff fixed {self.a5_fixed.idle_passes:>10} passes"
            f"   backoff {self.a5_backoff.idle_passes:>7} passes"
            f"   ({self.a5_fixed.idle_passes / max(1, self.a5_backoff.idle_passes):.2f}x"
            f" fewer; wakeup {self.a5_fixed.mean_wakeup_ns / us:.2f}"
            f" -> {self.a5_backoff.mean_wakeup_ns / us:.2f} us)",
            f"A6 faults       clean  {self.a6_clean.makespan_ns / us:>9.1f} us"
            f"   faulty {self.a6_faulty.makespan_ns / us:>7.1f} us"
            f"   ({self.a6_faulty.makespan_ns / self.a6_clean.makespan_ns:.2f}x;"
            f" {self.a6_faulty.drops} drops, {self.a6_faulty.retransmits} retx,"
            f" {self.a6_faulty.lock_preemptions} preempt)",
        ]
        return "\n".join(lines)


#: the twelve ablation legs: (field, leg, kwargs) — seeds fixed to the
#: values EXPERIMENTS.md has always used, so the suite reproduces it
_SUITE_LEGS = (
    ("a1_hier", burst_leg, {"hierarchical": True}),
    ("a1_flat", burst_leg, {"hierarchical": False}),
    ("a2_spin", burst_leg, {"hierarchical": False, "label": "spin"}),
    ("a2_mutex", burst_leg, {"hierarchical": False, "queue": "mutex", "label": "mutex"}),
    ("a3_checked", queue_leg, {"queue": "spin", "seed": 9}),
    ("a3_always", queue_leg, {"queue": "always", "seed": 9}),
    ("a4_locked", queue_leg, {"queue": "spin", "seed": 13}),
    ("a4_lockfree", queue_leg, {"queue": "lockfree", "seed": 13}),
    ("a5_fixed", backoff_leg, {"backoff": False, "seed": 11}),
    ("a5_backoff", backoff_leg, {"backoff": True, "seed": 11}),
    # A6 pair shares a seed on purpose: same world, faults on/off
    ("a6_clean", faults_leg, {"faulty": False, "seed": 31}),
    ("a6_faulty", faults_leg, {"faulty": True, "seed": 31}),
)


def run_ablation_suite() -> AblationSuite:
    """Run all twelve ablation legs, one seeded simulation each."""
    return AblationSuite(**{name: leg(**kwargs) for name, leg, kwargs in _SUITE_LEGS})
