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
sharer set — and returns a *cost in nanoseconds* from every access, which
the caller charges to the acting core's virtual time.  It deliberately does
not model capacity/conflict misses: the structures of interest (queue
heads, lock words, completion flags) are hot lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.machine import Machine


@dataclass
class MemStats:
    """Aggregate coherence-traffic counters (shared by related lines)."""

    reads: int = 0
    read_hits: int = 0
    read_misses: int = 0
    writes: int = 0
    write_hits: int = 0
    invalidations: int = 0
    transfer_ns_total: int = 0

    def merge(self, other: "MemStats") -> "MemStats":
        out = MemStats()
        for f in (
            "reads",
            "read_hits",
            "read_misses",
            "writes",
            "write_hits",
            "invalidations",
            "transfer_ns_total",
        ):
            setattr(out, f, getattr(self, f) + getattr(other, f))
        return out


class CacheLine:
    """One hot cache line: MESI reduced to {owner, sharers}.

    ``read(core)``/``write(core)`` mutate the coherence state and return
    the access latency in ns.  Ownership means "last writer"; a line with
    several sharers and an owner corresponds to MESI Shared with the
    owner's copy also Shared (we keep the owner id to price the next miss).
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
        self.sharers: set[int] = {home}
        self.name = name
        self.stats = stats if stats is not None else MemStats()

    # ------------------------------------------------------------------
    def read(self, core: int) -> int:
        """Load by ``core``; returns latency in ns."""
        st = self.stats
        st.reads += 1
        if core in self.sharers:
            st.read_hits += 1
            return self.machine.spec.local_ns
        st.read_misses += 1
        cost = self.machine.xfer(self.owner, core)
        st.transfer_ns_total += cost
        self.sharers.add(core)
        return cost

    def write(self, core: int) -> int:
        """Store by ``core``; invalidates all other sharers; latency in ns."""
        machine = self.machine
        st = self.stats
        sharers = self.sharers
        st.writes += 1
        # owner is always a sharer, so owner==core + one sharer == {core}
        if self.owner == core and len(sharers) == 1:
            st.write_hits += 1
            return machine.spec.local_ns
        # Fetch the line if we do not hold a copy at all.
        if core in sharers:
            cost = machine.spec.local_ns
        else:
            cost = machine.xfer(self.owner, core)
        # Invalidate every other sharer; the writer observes the latency of
        # the farthest acknowledgement.  Loop instead of list + max(): this
        # runs on every contended store.
        inval = 0
        farthest = 0
        xrow = machine.xfer_row(core)
        for s in sharers:
            if s != core:
                inval += 1
                d = xrow[s]
                if d > farthest:
                    farthest = d
        if inval:
            st.invalidations += inval
            cost += farthest
        st.transfer_ns_total += cost
        self.owner = core
        self.sharers = {core}
        return cost

    def write_async(self, core: int) -> int:
        """Fire-and-forget store (store-buffer semantics).

        The writer is charged only its local store latency; the coherence
        transfer cost surfaces later as read misses by other cores (and,
        for notification words, as the doorbell/wake latency).  Using this
        for list-head and completion words avoids double-charging one
        physical transfer to both the writer and the notified reader.
        """
        st = self.stats
        sharers = self.sharers
        st.writes += 1
        others = len(sharers) - (1 if core in sharers else 0)
        if others:
            st.invalidations += others
        else:
            st.write_hits += 1
        self.owner = core
        self.sharers = {core}
        return self.machine.spec.local_ns

    def rmw(self, core: int) -> int:
        """Atomic read-modify-write (CAS): a write plus the ALU cost."""
        return self.write(core) + self.machine.spec.cas_ns

    def __repr__(self) -> str:
        return f"<CacheLine {self.name or id(self)} owner={self.owner} sharers={sorted(self.sharers)}>"
