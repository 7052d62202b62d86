"""Cache-line cost model.

The paper's scalability results are, at bottom, stories about cache lines:

* Algorithm 2's emptiness check without the lock is cheap because an empty
  queue's state line settles into a *shared* state across all polling cores
  — reads cost local latency and generate no coherence traffic.
* Enqueueing into a widely-polled queue is expensive because the write must
  invalidate every sharer, and each subsequent reader misses.
* Lock handoff cost equals a line transfer between the previous and next
  holder, hence the NUMA distance between them.

:class:`CacheLine` models exactly that much — an owner (last writer) and a
bitmask of sharing cores — and returns a *cost in nanoseconds* from every
access, which the caller charges to the acting core's virtual time.  It
deliberately does not model capacity/conflict misses: the structures of
interest (queue heads, lock words, completion flags) are hot lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.machine import Machine


@dataclass(slots=True)
class MemStats:
    """Aggregate coherence-traffic counters (shared by related lines).

    Slotted: a line built without a shared stats object makes its own,
    so a dict per instance would be paid once per such line.
    """

    reads: int = 0
    read_hits: int = 0
    read_misses: int = 0
    writes: int = 0
    write_hits: int = 0
    invalidations: int = 0
    transfer_ns_total: int = 0


class CacheLine:
    """One hot cache line: MESI reduced to {owner, sharers}.

    ``read(core)``/``write(core)`` mutate the coherence state and return
    the access latency in ns.  Ownership means "last writer"; a line with
    several sharers and an owner corresponds to MESI Shared with the
    owner's copy also Shared (we keep the owner id to price the next miss).
    ``sharers`` is a bitmask of core ids (bit ``c`` set: core ``c`` holds
    a copy); the owner's bit is always set.  A line left with one sharer
    holds the machine's shared int for that core's bit.
    """

    __slots__ = ("machine", "owner", "sharers", "name", "stats")

    def __init__(
        self,
        machine: "Machine",
        home: int = 0,
        name: str = "",
        stats: Optional[MemStats] = None,
    ) -> None:
        self.machine = machine
        self.owner = home
        self.sharers = machine._core_bits[home]
        self.name = name
        self.stats = stats if stats is not None else MemStats()

    # ------------------------------------------------------------------
    def read(self, core: int) -> int:
        """Load by ``core``; returns latency in ns."""
        st = self.stats
        st.reads += 1
        if self.sharers >> core & 1:
            st.read_hits += 1
            return self.machine.spec.local_ns
        st.read_misses += 1
        cost = self.machine.xfer(self.owner, core)
        st.transfer_ns_total += cost
        self.sharers |= 1 << core
        return cost

    def write(self, core: int) -> int:
        """Store by ``core``; invalidates all other sharers; latency in ns."""
        machine = self.machine
        st = self.stats
        sharers = self.sharers
        mine = machine._core_bits[core]
        st.writes += 1
        # the owner is always a sharer, so {core} alone means core owns it
        if sharers == mine:
            st.write_hits += 1
            return machine.spec.local_ns
        # Fetch the line if we do not hold a copy at all.
        if sharers & mine:
            cost = machine.spec.local_ns
        else:
            cost = machine.xfer(self.owner, core)
        # Invalidate every other sharer; the writer observes the latency of
        # the farthest acknowledgement: the first of the writer's distance
        # tiers, farthest first, that holds a sharer.
        others = sharers & ~mine
        st.invalidations += others.bit_count()
        for mask, ns in machine._xfer_tiers[core]:
            if others & mask:
                cost += ns
                break
        st.transfer_ns_total += cost
        self.owner = core
        self.sharers = mine
        return cost

    def write_async(self, core: int) -> int:
        """Fire-and-forget store (store-buffer semantics).

        The writer is charged only its local store latency; the coherence
        transfer cost surfaces later as read misses by other cores (and,
        for notification words, as the doorbell/wake latency).  Using this
        for list-head and completion words avoids double-charging one
        physical transfer to both the writer and the notified reader.
        """
        machine = self.machine
        st = self.stats
        mine = machine._core_bits[core]
        others = self.sharers & ~mine
        st.writes += 1
        if others:
            st.invalidations += others.bit_count()
        else:
            st.write_hits += 1
        self.owner = core
        self.sharers = mine
        return machine.spec.local_ns

    def rmw(self, core: int) -> int:
        """Atomic read-modify-write (CAS): a write plus the ALU cost."""
        return self.write(core) + self.machine.spec.cas_ns

    def __repr__(self) -> str:
        cores = [c for c in range(self.sharers.bit_length()) if self.sharers >> c & 1]
        return f"<CacheLine {self.name or id(self)} owner={self.owner} sharers={cores}>"
