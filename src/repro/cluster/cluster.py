"""Cluster assembly.

A :class:`Cluster` wires N simulated nodes — each with its own machine
topology, thread scheduler and PIOMan instance — onto one shared virtual
clock and one fabric.  This mirrors the paper's testbed: BORDERLINE is a
cluster of 8-core Opteron boxes, each holding one Myri-10G and one
ConnectX InfiniBand NIC, evaluated over InfiniBand (§V-B).

A cluster can also be built as one **shard** of a larger simulated
cluster (``shard=ShardSpec(index, count)`` or ``(index, count)``): node
ids keep their global meaning, but only the ids the :class:`ShardSpec`
assigns to this shard are instantiated locally — round-robin
(``id % count == index``) unless the spec carries an ownership table,
which builders with traffic information compute with
:meth:`ShardSpec.by_load`.  Frames to non-local nodes leave through the
fabric's ``remote_sink`` — the conservative-lookahead coordinator in
:mod:`repro.cluster.shard` carries them across processes.  Every RNG
stream is per entity — wire jitter per source rail, probe phases and
fault streams per node — so no stream is shared across nodes that may
land in different processes, and any cluster can run sharded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.core.manager import PIOMan
from repro.net.driver import DriverSpec, IB_CONNECTX
from repro.net.fabric import Fabric
from repro.net.nic import Nic
from repro.par.jobs import derive_seed
from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.sim.trace import NULL_TRACER, Tracer
from repro.threads.scheduler import Scheduler
from repro.topology.builder import borderline
from repro.topology.machine import Machine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultInjector, FaultPlan


@dataclass(frozen=True)
class ShardSpec:
    """This process's slice of the node space.

    ``owners[node_id]`` is the shard index that instantiates the node;
    without a table ownership is round-robin, ``id % count == index``,
    which splits a ring's links evenly across shards instead of giving
    each shard one boundary link.  Every shard of a run must carry the
    same table: the coordinator routes frames by the node lists the
    shards report, so a disagreement would leave a node in two shards
    (or none).
    """

    index: int
    count: int
    owners: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.count < 1 or not (0 <= self.index < self.count):
            raise ValueError(f"bad shard spec {self.index}/{self.count}")
        if self.owners is not None and not all(
            0 <= k < self.count for k in self.owners
        ):
            raise ValueError(
                f"ownership table names a shard outside 0..{self.count - 1}"
            )

    @classmethod
    def by_load(cls, index: int, count: int, load: Sequence[int]) -> "ShardSpec":
        """Deal node ids over the shards busiest first: sort by ``load``
        (descending, ties by id), then assign round-robin.  Each shard
        gets the same number of nodes ±1, and a uniform load keeps the
        round-robin layout."""
        order = sorted(range(len(load)), key=lambda i: (-load[i], i))
        owners = [0] * len(load)
        for rank, node_id in enumerate(order):
            owners[node_id] = rank % count
        return cls(index, count, tuple(owners))

    def owns(self, node_id: int) -> bool:
        if self.owners is None:
            return node_id % self.count == self.index
        return self.owners[node_id] == self.index


class Node:
    """One cluster node: machine + scheduler + PIOMan + NICs."""

    def __init__(
        self,
        node_id: int,
        machine: Machine,
        engine: Engine,
        fabric: Fabric,
        drivers: Sequence[DriverSpec],
        *,
        rng: Rng,
        tracer: Tracer = NULL_TRACER,
        registry=None,
        summary_fastpath: bool = True,
    ) -> None:
        self.id = node_id
        self.machine = machine
        self.engine = engine
        self.scheduler = Scheduler(
            machine, engine, name=f"node{node_id}", rng=rng, tracer=tracer,
            registry=registry,
        )
        self.pioman = PIOMan(
            machine,
            engine,
            self.scheduler,
            tracer=tracer,
            name=f"pioman@{node_id}",
            registry=registry,
            summary_fastpath=summary_fastpath,
        )
        self.nics: list[Nic] = [
            fabric.new_nic(node_id, drv, index=i) for i, drv in enumerate(drivers)
        ]
        for nic in self.nics:
            nic.tracer = tracer
        if registry is not None:
            for nic in self.nics:
                registry.register(f"nic.{nic.name}", nic.stats)
        #: communication library instance (attached by nmad/mpi layers)
        self.comm = None

    def nic_by_driver(self, name: str) -> Nic:
        for nic in self.nics:
            if nic.driver.name == name:
                return nic
        raise KeyError(f"node {self.id} has no {name!r} NIC")

    def __repr__(self) -> str:
        return f"<Node {self.id} machine={self.machine.spec.name} nics={len(self.nics)}>"


class Cluster:
    """N homogeneous nodes over one fabric and one virtual clock.

    Idle cores park on doorbells, so the quiescence leap (which only
    runs on ``true_spin`` schedulers) never applies to a cluster.
    ``shard`` (a :class:`ShardSpec` or ``(index, count)``) instantiates
    only the nodes that shard owns: ``id % count == index``, or the
    spec's ownership table when it has one (module docstring).  In a
    sharded build, ``nnodes`` stays the *global* node count.

    A fault plan gets one injector per node (seed =
    ``derive_seed(plan.seed, "node{id}")``), registered under
    ``faults.node{id}`` and kept in ``fault_injectors``: a stream shared
    by several nodes would make its draw order depend on the shard
    layout.
    """

    def __init__(
        self,
        nnodes: int = 2,
        *,
        machine_factory: Callable[[], Machine] = borderline,
        drivers: Sequence[DriverSpec] = (IB_CONNECTX,),
        seed: int = 0,
        tracer: Tracer = NULL_TRACER,
        registry=None,
        summary_fastpath: bool = True,
        faults: Optional[FaultPlan] = None,
        shard=None,
    ) -> None:
        if nnodes < 1:
            raise ValueError("need at least one node")
        if shard is not None and not isinstance(shard, ShardSpec):
            shard = ShardSpec(*shard)
        if shard is not None and shard.owners is not None and (
            len(shard.owners) != nnodes
        ):
            raise ValueError(
                f"ownership table covers {len(shard.owners)} nodes, "
                f"cluster has {nnodes}"
            )
        self.engine = Engine()
        self.rng = Rng(seed)
        self.fabric = Fabric(self.engine, rng=self.rng.fork(1))
        self.tracer = tracer
        self.registry = registry
        self.nnodes = nnodes
        self.shard = shard
        local_ids = [
            i for i in range(nnodes) if shard is None or shard.owns(i)
        ]
        self.nodes = [
            Node(
                i,
                machine_factory(),
                self.engine,
                self.fabric,
                drivers,
                rng=self.rng.fork(100 + i),
                tracer=tracer,
                registry=registry,
                summary_fastpath=summary_fastpath,
            )
            for i in local_ids
        ]
        self.node_by_id = {node.id: node for node in self.nodes}
        #: node id -> fault injector when a plan is attached
        #: (``faults=FaultPlan(...)``); empty keeps every hook cold —
        #: bit-identical to a plan-less run
        self.fault_injectors: dict[int, FaultInjector] = {}
        if faults is not None and faults.enabled():
            # a caller holding a plan has loaded repro.faults already
            from repro.faults import FaultInjector

            for node in self.nodes:
                plan = replace(faults, seed=derive_seed(faults.seed, f"node{node.id}"))
                injector = FaultInjector(plan, tracer=tracer)
                injector.engine = self.engine
                injector.install(
                    scheduler=node.scheduler, pioman=node.pioman, nics=node.nics
                )
                if registry is not None:
                    registry.register(f"faults.node{node.id}", injector.stats)
                self.fault_injectors[node.id] = injector

    def run(self, until: Optional[int] = None) -> int:
        """Run the shared engine (see :meth:`repro.sim.Engine.run`)."""
        return self.engine.run(until=until)

    def __repr__(self) -> str:
        shard = f" shard={self.shard.index}/{self.shard.count}" if self.shard else ""
        return f"<Cluster nodes={len(self.nodes)}{shard} t={self.engine.now}>"
