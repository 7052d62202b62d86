"""Fault plans: what to break, how hard, and under which seed.

A :class:`FaultPlan` is a frozen, picklable description of the hostile
world a run should simulate.  Every fault type is **opt-in**: a ``None``
field means that fault's machinery is never touched — no RNG stream is
created, no hook fires, and the run is bit-identical to a plan-less run
(the golden determinism suite enforces this).

Seeding discipline (see ``docs/FAULTS.md``): the plan's single ``seed``
derives one independent :class:`repro.sim.rng.Rng` stream *per fault
type* via the same ``fork(salt)`` rule the cluster uses for its fabric
and nodes.  Enabling one fault therefore never perturbs the draw
sequence of another, and the salts below are part of the reproducibility
contract — changing one changes every faulty golden run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: ``Rng(plan.seed).fork(salt)`` salts, one per fault type.  Stable API:
#: renaming or renumbering these invalidates recorded faulty runs.
NET_STREAM = 11
LOCK_STREAM = 13
CANCEL_STREAM = 17


@dataclass(frozen=True)
class NetFaults:
    """Packet drop and reorder on every NIC the injector is attached to.

    A dropped frame is *not* duplicated: the send is forgotten on the
    wire and the driver's timeout-based retransmit path re-posts the
    same frame ``retransmit_timeout_ns`` later (see
    :class:`repro.net.driver.RetransmitPath`).  Exactly-once delivery is
    preserved — the protocol layers above (nmad rendezvous) tolerate
    arbitrary delay but not duplicate DATA/FIN frames.
    """

    #: probability a transmission is lost on the wire
    drop_p: float = 0.0
    #: probability a delivered frame is delayed past its natural arrival
    reorder_p: float = 0.0
    #: reorder delay bound: a reordered frame arrives between half this
    #: and this much later than it would have
    reorder_ns: int = 20_000
    #: sender-side loss-detection timeout before a retransmit; 0 derives
    #: a per-NIC default from the driver spec (a few frame round-trips)
    retransmit_timeout_ns: int = 0
    #: drops per frame before delivery is forced (progress guarantee)
    max_retries: int = 4


@dataclass(frozen=True)
class SlowCores:
    """Frequency skew: the listed cores run all compute slower.

    Applied in the scheduler's ``_advance`` cost accounting: every fresh
    ``Compute`` instruction interpreted on a skewed core is stretched by
    ``factor`` (integer arithmetic, deterministic).  Models a thermally
    throttled / power-capped straggler core.
    """

    #: core ids to slow down
    cores: Tuple[int, ...] = ()
    #: compute-time multiplier (2.0 = half speed); quantized to 1/1024
    factor: float = 2.0


@dataclass(frozen=True)
class LockPreemption:
    """Lock-holder preemption: the OS deschedules a core *while it holds
    a queue lock* (or just as a handoff grants it one).

    Each grant of an attached :class:`~repro.sync.spinlock.SpinLock` /
    :class:`~repro.sync.mutex.Mutex` is stretched by ``window_ns`` with
    probability ``p`` — spinners burn the whole window, which is exactly
    the pathology the paper's double-checked-locking fallback (Algorithm
    2's lock-free first check) is designed to sidestep.
    """

    #: per-grant preemption probability
    p: float = 0.0
    #: descheduling window added to the grant (ns)
    window_ns: int = 30_000


@dataclass(frozen=True)
class CancelStorm:
    """Bursts of ``PIOMan.cancel`` calls against queued tasks.

    Every ``interval_ns`` a victim is picked from the currently queued
    tasks; the actual cancel fires **half an interval later**, so by
    then the victim may have been dequeued and be mid-run — the exact
    in-flight race the manager's cancellation path must survive without
    resurrecting the task or corrupting the occupancy summary.
    """

    #: total cancel attempts to fire (0 disables the storm)
    count: int = 0
    #: virtual time between victim picks
    interval_ns: int = 100_000
    #: virtual-time offset of the first pick
    start_ns: int = 0


@dataclass(frozen=True)
class FaultPlan:
    """One seeded description of everything that goes wrong in a run.

    Every fault type is event-carried: net draws happen inside NIC
    transmit events, lock-preemption draws inside lock-grant events,
    cancel storms post their own tick events, and slow-core skew is a
    static table applied per interpreted Compute (no draw at all).  So
    queued events already bound a quiescence leap
    (``Engine.next_external_time``).  A fault type that acted on a
    cadence of its own, outside the event queue, would vanish inside
    leaps unless it bounded them too.
    """

    seed: int = 0
    net: Optional[NetFaults] = None
    slow_cores: Optional[SlowCores] = None
    lock_preemption: Optional[LockPreemption] = None
    cancel_storm: Optional[CancelStorm] = None

    def enabled(self) -> bool:
        """Does this plan inject anything at all?"""
        return (
            self.net is not None
            or self.slow_cores is not None
            or self.lock_preemption is not None
            or self.cancel_storm is not None
        )
