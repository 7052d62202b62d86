"""Machine topology tree.

The paper (Fig. 2) maps one task queue onto every node of the machine's
hardware topology: per-core, per-shared-cache, per-chip, per-NUMA-node and
a global queue.  This module provides that tree, plus the *transfer cost*
function used by the memory model: moving a cache line between two cores
costs a latency determined by their deepest common topology level.

The calibration constants live in :class:`MachineSpec`, so a machine is
entirely described by data — the named builders in
:mod:`repro.topology.builder` only assemble specs and trees.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.topology.cpuset import CpuSet


class Level(enum.IntEnum):
    """Topology levels, innermost first.

    A machine need not use every level (borderline has no shared cache and
    no distinct NUMA level); the tree simply omits the missing ones.
    """

    CORE = 0
    CACHE = 1
    CHIP = 2
    NUMA = 3
    MACHINE = 4


@dataclass
class MachineSpec:
    """All latency calibration constants of a simulated machine.

    Transfer costs are the *uncontended* cache-line move latencies between
    two cores whose deepest common topology level is the key.  Contention
    effects (handoff queueing, invalidation storms) are modeled by the
    lock/memory layers on top of these base numbers, not baked in here.
    """

    name: str
    #: ns to read/write a line already owned by this core
    local_ns: int = 6
    #: ns of pure ALU bookkeeping for a compare-and-swap on an owned line
    cas_ns: int = 12
    #: uncontended line transfer latency keyed by deepest common level
    xfer_ns: dict[Level, int] = field(default_factory=dict)
    #: multiplier applied to a line transfer that happens under contention
    #: (CAS retry storms / queued handoffs); dimensionless
    contended_factor: float = 3.0
    #: cost of a thread context switch (motivates spinlocks over mutexes)
    context_switch_ns: int = 2_000
    #: spin-waiters older than this win lock handoffs regardless of
    #: proximity (hardware arbitration is eventually fair; without a bound
    #: two nearby cores can ping-pong a lock while remote spinners starve)
    lock_starvation_ns: int = 25_000
    #: scheduler timer-interrupt period (Marcel keypoint)
    timer_quantum_ns: int = 1_000_000
    #: base cost of invoking an empty ltask's function
    task_run_ns: int = 150
    #: cost of allocating/initialising a task structure before submit
    task_init_ns: int = 320
    #: cost of routing a CPU set to its queue during submission
    submit_route_ns: int = 160
    #: cost of one emptiness check in Algorithm 2 when the flag line is
    #: locally cached (remote states pay xfer on top)
    spin_check_ns: int = 10
    #: invalidation-propagation latency keyed by deepest common level: how
    #: long a remote core keeps serving a stale cached copy of a written
    #: word.  Distinct from the clean-transfer cost — invalidation
    #: broadcasts queue behind probe traffic on these HyperTransport
    #: parts.  Falls back to the transfer cost where unset.
    inval_ns: dict[Level, int] = field(default_factory=dict)
    #: period of one full queue-scan probe loop on a spinning/idle core;
    #: a doorbell ring lands a uniform-random phase of this cycle after
    #: the write it models (continuous polling abstracted to one event)
    probe_cycle_ns: int = 120
    #: how long an idle core waits between repeat-task polling rounds when
    #: every repeat task reported "not complete" (models timer-driven
    #: progression granularity for polling loops)
    idle_repoll_ns: int = 2_000

    def inval(self, level: Level) -> int:
        """Invalidation-propagation latency for a given common level."""
        if level == Level.CORE:
            return self.local_ns
        for lv in range(level, Level.MACHINE + 1):
            if Level(lv) in self.inval_ns:
                return self.inval_ns[Level(lv)]
        return self.xfer(level)

    def xfer(self, level: Level) -> int:
        """Uncontended transfer cost for a given common level."""
        if level == Level.CORE:
            return self.local_ns
        # fall back to the nearest defined outer level so sparse specs work
        for lv in range(level, Level.MACHINE + 1):
            if Level(lv) in self.xfer_ns:
                return self.xfer_ns[Level(lv)]
        raise KeyError(f"{self.name}: no transfer cost at/above {level!r}")


class TopoNode:
    """One node of the topology tree (a machine, NUMA node, chip, cache or
    core).  Leaves are cores; every node knows its covered :class:`CpuSet`.
    """

    __slots__ = ("level", "index", "name", "parent", "children", "cpuset", "attrs")

    def __init__(
        self,
        level: Level,
        index: int,
        parent: Optional["TopoNode"] = None,
        name: Optional[str] = None,
    ) -> None:
        self.level = level
        self.index = index
        self.parent = parent
        self.children: list[TopoNode] = []
        self.cpuset = CpuSet(0)
        self.name = name or f"{level.name.lower()}#{index}"
        self.attrs: dict = {}
        if parent is not None:
            parent.children.append(self)

    # -- structure ----------------------------------------------------
    def ancestors(self) -> Iterator["TopoNode"]:
        """Self, then each ancestor up to the root."""
        node: Optional[TopoNode] = self
        while node is not None:
            yield node
            node = node.parent

    def depth(self) -> int:
        return sum(1 for _ in self.ancestors()) - 1

    def iter_subtree(self) -> Iterator["TopoNode"]:
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def cores(self) -> list["TopoNode"]:
        """Leaf core nodes below (or equal to) this node, ordered by id."""
        return sorted(
            (n for n in self.iter_subtree() if n.level == Level.CORE),
            key=lambda n: n.index,
        )

    def __repr__(self) -> str:
        return f"<TopoNode {self.name} cpuset={list(self.cpuset)}>"


class Machine:
    """A fully built machine: topology tree + spec + distance matrix.

    ``machine.core_nodes[i]`` is the :class:`TopoNode` leaf of core ``i``;
    ``machine.xfer(a, b)`` the uncontended line-transfer cost between cores.
    """

    def __init__(self, spec: MachineSpec, root: TopoNode) -> None:
        self.spec = spec
        self.root = root
        self.core_nodes: list[TopoNode] = root.cores()
        if [c.index for c in self.core_nodes] != list(range(len(self.core_nodes))):
            raise ValueError("core ids must be dense 0..n-1")
        self.ncores = len(self.core_nodes)
        self._fill_cpusets(root)
        self._xfer = self._build_xfer_matrix()
        #: per writer core, ``(core mask, ns)`` for each distinct transfer
        #: cost from it, farthest first: a store's farthest invalidation
        #: acknowledgement is the first tier its sharer bitmask meets
        self._xfer_tiers = [self._tiers(row) for row in self._xfer]
        #: ``1 << core`` per core id, one shared int each: a cache line
        #: left with one sharer stores this instead of a new int (the
        #: interpreter caches only the ints up to 256)
        self._core_bits = tuple(1 << c for c in range(self.ncores))
        self._inval = [
            [self.spec.inval(self._common_level(a, b)) for b in range(self.ncores)]
            for a in range(self.ncores)
        ]
        #: elementwise max of transfer and invalidation latency — the
        #: earliest a write by ``a`` becomes observable on ``b`` (doorbell
        #: notice time); precomputed because every ring consults it
        self._notice = [
            [max(x, i) for x, i in zip(xrow, irow)]
            for xrow, irow in zip(self._xfer, self._inval)
        ]
        #: every topology node, outermost first (useful to build queues)
        self.nodes: list[TopoNode] = list(root.iter_subtree())

    def _fill_cpusets(self, node: TopoNode) -> CpuSet:
        if node.level == Level.CORE:
            node.cpuset = CpuSet.single(node.index)
        else:
            acc = CpuSet(0)
            for child in node.children:
                acc = acc | self._fill_cpusets(child)
            node.cpuset = acc
        return node.cpuset

    def _common_level(self, a: int, b: int) -> Level:
        if a == b:
            return Level.CORE
        node = self.core_nodes[a]
        for anc in node.ancestors():
            if anc.cpuset.contains(b):
                return anc.level
        raise ValueError(f"cores {a} and {b} share no ancestor")

    def _build_xfer_matrix(self) -> list[list[int]]:
        n = self.ncores
        return [
            [self.spec.xfer(self._common_level(a, b)) for b in range(n)]
            for a in range(n)
        ]

    @staticmethod
    def _tiers(row: list[int]) -> tuple[tuple[int, int], ...]:
        masks: dict[int, int] = {}
        for core, ns in enumerate(row):
            masks[ns] = masks.get(ns, 0) | 1 << core
        return tuple((mask, ns) for ns, mask in sorted(masks.items(), reverse=True))

    # -- queries --------------------------------------------------------
    def xfer(self, src_core: int, dst_core: int) -> int:
        """Uncontended cache-line transfer cost between two cores (ns)."""
        return self._xfer[src_core][dst_core]

    def xfer_row(self, src_core: int) -> list[int]:
        """One row of the transfer matrix: costs from ``src_core`` to every
        core.  Hot scans (idle-core search, lock handoff arbitration) bind
        this once instead of paying two indexing calls per candidate."""
        return self._xfer[src_core]

    def inval(self, src_core: int, dst_core: int) -> int:
        """Invalidation-propagation latency between two cores (ns)."""
        return self._inval[src_core][dst_core]

    def notice(self, src_core: int, dst_core: int) -> int:
        """When a store by ``src_core`` becomes observable on ``dst_core``:
        ``max(xfer, inval)`` — a probe cannot see the write before the
        invalidation reaches it, nor before the line itself can."""
        return self._notice[src_core][dst_core]

    def common_level(self, a: int, b: int) -> Level:
        """Deepest topology level shared by two cores."""
        return self._common_level(a, b)

    def node_covering(self, cpuset: CpuSet) -> TopoNode:
        """The *narrowest* topology node whose span covers ``cpuset``.

        This is the routing rule of paper §III-A: a task restricted to one
        core lands in that core's queue; one spanning a chip in the chip
        queue; anything wider in the global queue.
        """
        if not cpuset:
            raise ValueError("cannot route an empty CpuSet")
        if not cpuset.issubset(self.root.cpuset):
            raise ValueError(f"{cpuset!r} exceeds machine cores")
        node = self.core_nodes[cpuset.first()]
        for anc in node.ancestors():
            if cpuset.issubset(anc.cpuset):
                return anc
        raise AssertionError("unreachable: root covers every valid set")

    def siblings_sharing(self, core: int, level: Level) -> CpuSet:
        """Cores sharing the given topology level with ``core``.

        NewMadeleine uses this to build polling-task CPU sets ("the cores
        that share a cache with the current CPU", paper §IV-B).  If the
        machine lacks that level the next outer existing level is used.
        """
        node = self.core_nodes[core]
        best = node.cpuset
        for anc in node.ancestors():
            if anc.level <= level:
                best = anc.cpuset
            else:
                break
        return best

    def all_cores(self) -> CpuSet:
        return self.root.cpuset

    def describe(self) -> str:
        """ASCII rendering of the topology tree (for docs and debugging)."""
        lines: list[str] = [f"machine {self.spec.name!r} ({self.ncores} cores)"]

        def rec(node: TopoNode, indent: int) -> None:
            lines.append("  " * indent + f"{node.name}: cores {list(node.cpuset)}")
            for child in node.children:
                rec(child, indent + 1)

        rec(self.root, 1)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Machine {self.spec.name} ncores={self.ncores}>"
