"""Queue variants for the paper's design-choice ablations.

* :class:`MutexTaskQueue` — ablation A2.  The paper argues (§IV-A) that a
  blocking mutex is the wrong tool for queue-length critical sections: a
  waiter pays a context switch both ways, dwarfing the section itself.
* :class:`LockFreeTaskQueue` — ablation A4 / paper future work (§VI).  A
  CAS-based MS-queue-style list: no lock word at all, but every operation
  is an RMW on the head/tail line, with a retry penalty when several cores
  hit the same line in a short window.
* :class:`IdleBackoff` — the adaptive idle-backoff policy (off by default):
  an idle core that keeps coming up empty stretches its re-poll interval
  exponentially instead of hammering the queues at a fixed period, and
  snaps back to the base period on any doorbell.  Pass an instance as
  ``Scheduler(idle_backoff=...)``; the ablation bench quantifies saved
  empty passes against the added wakeup latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.mem.cacheline import MemStats
from repro.sync.mutex import Mutex
from repro.sync.stats import LockStats
from repro.threads.instructions import Compute, Instr, MutexAcquire, MutexRelease
from repro.core.queues import TaskQueue
from repro.core.task import LTask, TaskState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.topology.machine import Machine, TopoNode


class MutexTaskQueue(TaskQueue):
    """TaskQueue protected by a blocking mutex instead of a spinlock."""

    def __init__(
        self,
        machine: "Machine",
        engine: "Engine",
        node: "TopoNode",
        *,
        lock_stats: Optional[LockStats] = None,
        mem_stats: Optional[MemStats] = None,
    ) -> None:
        super().__init__(machine, engine, node, lock_stats=lock_stats, mem_stats=mem_stats)
        home = node.cpuset.first() if node.cpuset else 0
        self.mutex = Mutex(
            machine, engine, home=home, name=f"mutex:{self.name}",
            stats=self.lock.stats, mem_stats=mem_stats,
        )
        self._acquire = MutexAcquire(self.mutex)
        self._release = MutexRelease(self.mutex)


class LockFreeTaskQueue(TaskQueue):
    """CAS-based queue: each enqueue/dequeue is one RMW on a hot line.

    The contention model charges a retry penalty proportional to how many
    *distinct* cores performed an RMW on the line within the last
    ``retry_window_ns`` — a simple stand-in for CAS retry loops.
    """

    retry_window_ns = 200

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._recent_rmw: list[tuple[int, int]] = []  # (time, core)

    def _rmw_cost(self, core: int) -> int:
        now = self.engine.now
        self._recent_rmw = [
            (t, c) for (t, c) in self._recent_rmw if now - t <= self.retry_window_ns
        ]
        rivals = {c for (_, c) in self._recent_rmw if c != core}
        self._recent_rmw.append((now, core))
        base = self.state_line.rmw(core)
        # every CAS writes the head/tail line: un-prime the covering cores
        self._note_state_write()
        if rivals:
            # one extra line round-trip per rival caught in the window
            penalty = sum(self.machine.xfer(c, core) for c in rivals)
            return base + penalty
        return base

    def enqueue(self, core: int, task: LTask) -> Generator[Instr, Any, None]:
        yield Compute(self._rmw_cost(core))
        if task.state is TaskState.CANCELLED:
            return  # never resurrect a cancelled task (see TaskQueue.enqueue)
        self._append(core, task)

    def get_task(self, core: int) -> Generator[Instr, Any, Optional[LTask]]:
        nonempty, cost = self.probe(core)
        yield Compute(cost)
        if not nonempty:
            return None
        yield Compute(self._rmw_cost(core))
        task = self._pop_eligible(core)
        if task is not None:
            if not self._tasks:
                self._note_transition(core, prev_nonempty=True)
            self._note_dequeued(core, task)
            return task
        if not self._tasks:
            self.stats.lost_races += 1
        return None


@dataclass(frozen=True)
class IdleBackoff:
    """Adaptive idle backoff: stretch the re-poll period when nothing bites.

    After ``free_passes`` consecutive empty Algorithm-1 passes, an idle
    core multiplies its sleep between re-polls by ``factor`` per further
    empty pass, saturating at ``max_ns``; any doorbell (task submission
    reaching the core) or productive pass resets the streak, so the next
    sleep is the base period again.  The trade is explicit: fewer empty
    passes (and their probe traffic) in exchange for up to ``max_ns`` of
    extra latency noticing work that arrives *without* ringing a doorbell
    — which is why it is off by default and shipped as a variant for the
    ablation bench rather than wired into the golden configurations.

    Integer-only arithmetic: the stretched intervals are exact, so runs
    stay deterministic for any (factor, max_ns) choice.
    """

    factor: int = 2
    free_passes: int = 2
    max_ns: int = 64_000

    def delay_ns(self, base_ns: int, streak: int) -> int:
        """Sleep before the next re-poll after ``streak`` empty passes."""
        exp = streak - self.free_passes
        if exp <= 0:
            return base_ns
        if exp > 30:  # 2**30 * any base saturates; avoid huge int powers
            exp = 30
        stretched = base_ns * self.factor**exp
        return stretched if stretched < self.max_ns else self.max_ns
