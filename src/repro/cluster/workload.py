"""Seeded cluster-scale workload generator — ``repro.cluster.workload``.

The committed benches drive hand-written exchange patterns (a 4-node
ring, ping-pong pairs).  Cluster-scale questions — does the scheduler
hold up under 100+ nodes of open-loop request traffic, incast fan-in, a
bursty diurnal client population pushing requests through MPI
collectives? — need a *generator*: a :class:`WorkloadSpec` is a frozen,
picklable description, and :func:`build_workload_cluster` turns it into
a fully-wired :class:`~repro.cluster.cluster.Cluster` with one client
and one server thread per node.

Shard-safe determinism is the load-bearing property.  Every process —
any shard of any shard count — precomputes the **complete traffic
matrix** (who sends what to whom, in what order) from per-node RNG
streams seeded by ``derive_seed(spec.seed, "route{i}")``; runtime draws
(inter-arrival gaps, think times) come from a second per-node stream
consumed only by that node's own client thread.  No draw anywhere
depends on global interleaving, so node *i* behaves identically whether
it shares a process with all nodes, or with a third of them — which is
what lets :mod:`repro.cluster.shard` demand bit-identical fingerprints.

Knobs (see docs/SCALING.md for the full table):

* ``pattern`` — ``uniform`` (random peer), ``ring`` (neighbor),
  ``hotspot`` (80% of traffic to node 0), ``incast`` (every
  ``incast_fanin``-th node is a sink; its group fans in on it);
* ``arrival`` — ``open`` (isend at drawn gaps, bounded in-flight
  ``window``) or ``closed`` (request → reply → think time);
* ``burst_len``/``burst_gap_factor`` — on/off bursts: ``burst_len``
  back-to-back requests, then an idle stretch;
* ``diurnal_period``/``diurnal_amp`` — sinusoidal rate modulation over
  the request index (a day/night cycle in request space);
* ``collective_every`` — after every K requests all nodes join an
  ``allreduce`` (client requests flowing through the MPI collectives);
* ``rdv_fraction`` — fraction of requests sized above the rendezvous
  threshold, exercising the RTS/CTS/DATA/FIN path at scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.cluster.cluster import Cluster, ShardSpec
from repro.par.jobs import derive_seed
from repro.sim.rng import Rng
from repro.sim.trace import NULL_TRACER, Tracer
from repro.threads.instructions import Compute
from repro.topology.builder import smp

#: request tag; replies use RESP_TAG_BASE + sender rank (closed loop has
#: at most one outstanding request per sender, so that is unambiguous).
#: Collectives live at COLL_TAG_BASE = 1<<20, far away from both.
REQ_TAG = 1
RESP_TAG_BASE = 1024
#: reply payload size (a small ack)
RESP_BYTES = 64


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete, picklable description of one generated workload."""

    nnodes: int = 100
    requests_per_node: int = 32
    pattern: str = "uniform"       # uniform | ring | hotspot | incast
    arrival: str = "open"          # open | closed
    mean_gap_ns: int = 100_000     # open-loop mean inter-arrival
    think_ns: int = 20_000         # closed-loop post-reply think time
    size_bytes: int = 512          # mean request payload
    size_spread: float = 0.5       # uniform +/- relative spread
    rdv_fraction: float = 0.0      # fraction forced above rdv threshold
    burst_len: int = 0             # 0 = steady stream
    burst_gap_factor: float = 8.0  # inter-burst idle stretch multiplier
    diurnal_period: int = 0        # 0 = off; requests per sine period
    diurnal_amp: float = 0.5       # rate swing amplitude (0..1)
    incast_fanin: int = 8          # group size for pattern="incast"
    window: int = 4                # open-loop max in-flight requests
    collective_every: int = 0      # allreduce after every K requests
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nnodes < 2:
            raise ValueError("workload needs at least 2 nodes")
        if self.pattern not in ("uniform", "ring", "hotspot", "incast"):
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.arrival not in ("open", "closed"):
            raise ValueError(f"unknown arrival mode {self.arrival!r}")
        if self.pattern == "incast" and self.incast_fanin < 2:
            raise ValueError("incast_fanin must be >= 2")
        if not (0.0 <= self.diurnal_amp < 1.0):
            raise ValueError("diurnal_amp must be in [0, 1)")

    # -- derived, identical in every process ---------------------------
    def routes(self) -> list[list[Optional[tuple[int, int]]]]:
        """The full traffic matrix: ``routes()[i][r]`` is node *i*'s
        r-th request as ``(dst, size)``, or None when node *i* sits out
        round *r* (incast sinks).  Pure function of the spec."""
        all_routes: list[list[Optional[tuple[int, int]]]] = []
        for i in range(self.nnodes):
            rng = Rng(derive_seed(self.seed, f"route{i}"))
            reqs: list[Optional[tuple[int, int]]] = []
            for _ in range(self.requests_per_node):
                dst = self._pick_dst(i, rng)
                size = self._pick_size(rng)
                reqs.append(None if dst is None else (dst, size))
            all_routes.append(reqs)
        return all_routes

    def _pick_dst(self, i: int, rng: Rng) -> Optional[int]:
        n = self.nnodes
        if self.pattern == "ring":
            return (i + 1) % n
        if self.pattern == "incast":
            if i % self.incast_fanin == 0:
                return None  # sinks only serve
            sink = (i // self.incast_fanin) * self.incast_fanin
            return sink if sink != i else None
        if self.pattern == "hotspot" and i != 0 and rng.random() < 0.8:
            return 0
        # uniform over everyone but self
        dst = rng.randint(0, n - 2)
        return dst + 1 if dst >= i else dst

    def _pick_size(self, rng: Rng) -> int:
        if self.rdv_fraction > 0.0 and rng.random() < self.rdv_fraction:
            # comfortably above the default 16 KiB rendezvous threshold
            return 32 * 1024 + rng.randint(0, 8 * 1024)
        lo = max(1, int(self.size_bytes * (1.0 - self.size_spread)))
        hi = max(lo, int(self.size_bytes * (1.0 + self.size_spread)))
        return rng.randint(lo, hi)

    def inbound_counts(self, routes=None) -> list[int]:
        """Exact number of requests each node will receive — servers post
        exactly this many receives, so the run drains (no sentinel
        shutdown messages needed).  ``routes`` is :meth:`routes`'s
        result when the caller already has it."""
        counts = [0] * self.nnodes
        for reqs in self.routes() if routes is None else routes:
            for entry in reqs:
                if entry is not None:
                    counts[entry[0]] += 1
        return counts

    def message_counts(self, routes=None) -> list[int]:
        """Requests each node sends plus receives: the load a sharded
        build deals its nodes by (:meth:`ShardSpec.by_load
        <repro.cluster.cluster.ShardSpec.by_load>`)."""
        routes = self.routes() if routes is None else routes
        inbound = self.inbound_counts(routes)
        return [
            inbound[i] + sum(entry is not None for entry in reqs)
            for i, reqs in enumerate(routes)
        ]

    def collective_rounds(self) -> int:
        if self.collective_every <= 0:
            return 0
        return self.requests_per_node // self.collective_every

    def total_requests(self) -> int:
        return sum(self.inbound_counts())

    def suggest_until(self) -> int:
        """A generous virtual-time bound: the workload drains well before
        it (engines park at completion), so the bound only caps runaway
        bugs — identity of results does not depend on its exact value."""
        per_req = self.mean_gap_ns if self.arrival == "open" else (
            self.think_ns + 4_000_000
        )
        stretch = self.burst_gap_factor if self.burst_len else 1.0
        base = int(self.requests_per_node * per_req * (1.0 + stretch))
        coll = self.collective_rounds() * self.nnodes * 200_000
        return base + coll + 500_000_000


class WorkloadStats:
    """Per-node generator counters, scraped under ``workload.node{i}``."""

    __slots__ = ("issued", "completed", "replies", "served", "bytes_in",
                 "collectives")

    def __init__(self) -> None:
        self.issued = 0
        self.completed = 0
        self.replies = 0
        self.served = 0
        self.bytes_in = 0
        self.collectives = 0


def _gap_ns(spec: WorkloadSpec, rng: Rng, r: int) -> int:
    """Inter-arrival gap before request ``r`` (node-local stream)."""
    gap = rng.expovariate(1.0 / spec.mean_gap_ns) if spec.mean_gap_ns else 0.0
    if spec.burst_len and r and r % spec.burst_len == 0:
        # between bursts: a long idle stretch
        gap *= spec.burst_gap_factor
    if spec.diurnal_period:
        # day/night cycle over the request index: rate swings by +/-amp,
        # so the gap swings by the inverse
        phase = 2.0 * math.pi * r / spec.diurnal_period
        gap /= (1.0 + spec.diurnal_amp * math.sin(phase)) or 1.0
    return max(0, int(gap))


def _client_body(spec, comm, rank, routes, stats):
    """One node's client: issue its request schedule, join collectives."""
    from repro.mpi.collectives import allreduce

    def body(ctx) -> Generator[Any, Any, None]:
        core = ctx.core_id
        rng = Rng(derive_seed(spec.seed, f"gap{rank}"))
        pending: list = []
        every = spec.collective_every
        rounds_left = spec.collective_rounds()
        for r, entry in enumerate(routes):
            gap = _gap_ns(spec, rng, r)
            if gap:
                yield Compute(gap)
            if entry is not None:
                dst, size = entry
                if spec.arrival == "closed":
                    yield from comm.send(core, dst, REQ_TAG, size)
                    stats.issued += 1
                    yield from comm.recv(core, dst, RESP_TAG_BASE + rank)
                    stats.replies += 1
                    stats.completed += 1
                    if spec.think_ns:
                        yield Compute(spec.think_ns)
                else:
                    req = yield from comm.isend(core, dst, REQ_TAG, size)
                    stats.issued += 1
                    pending.append(req)
                    if len(pending) >= spec.window:
                        yield from comm.wait(core, pending.pop(0))
                        stats.completed += 1
            if every and rounds_left and (r + 1) % every == 0:
                rounds_left -= 1
                yield from allreduce(
                    comm, core, rank, spec.nnodes, stats.issued,
                    lambda a, b: a + b, ctxtag=100 + rounds_left,
                )
                stats.collectives += 1
        while pending:
            yield from comm.wait(core, pending.pop(0))
            stats.completed += 1

    return body


def _server_body(spec, comm, rank, expect, stats):
    """One node's server: absorb exactly ``expect`` requests (replying
    in closed-loop mode)."""

    def body(ctx) -> Generator[Any, Any, None]:
        core = ctx.core_id
        for _ in range(expect):
            req = yield from comm.recv(core, tag=REQ_TAG)
            stats.served += 1
            stats.bytes_in += req.size
            if spec.arrival == "closed":
                yield from comm.send(
                    core, req.src, RESP_TAG_BASE + req.src, RESP_BYTES
                )

    return body


def build_workload_cluster(
    shard=None,
    *,
    spec: WorkloadSpec,
    quiescence_leap: Optional[bool] = None,
    trace: bool = False,
    trace_limit: int = 2_000_000,
    machine: str = "smp2x2",
    faults=None,
) -> Cluster:
    """Builder for :func:`repro.cluster.shard.run_sharded` (and for
    direct single-process use with ``shard=None``).

    Builds the shard's slice of a ``spec.nnodes``-node cluster, wires a
    :class:`~repro.mpi.madmpi.MadMPI` stack over it and spawns the
    client/server threads for every **local** node.  A sharded build
    owns the nodes an ownership table assigns to ``shard.index``: node
    ids dealt busiest first by :meth:`WorkloadSpec.message_counts`, so
    incast sinks and hotspots spread over the shards — a pure function
    of the spec, the same in every shard.  ``shard=None`` computes no
    table.

    Per-node machines default to a small SMP (2 chips x 2 cores) so
    100+-node worlds stay constructible; the registry and (optional)
    tracer are attached to the returned cluster for
    :class:`~repro.cluster.shard.ShardRunner` to collect.
    """
    from repro.mpi.madmpi import MadMPI
    from repro.obs.registry import MetricsRegistry

    factories = {
        "smp2x2": lambda: smp(2, 2),
        "smp1x2": lambda: smp(1, 2),
    }
    if machine not in factories:
        raise ValueError(f"unknown machine {machine!r} (have {sorted(factories)})")
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True, limit=trace_limit) if trace else NULL_TRACER
    routes = spec.routes()
    if shard is not None:
        if not isinstance(shard, ShardSpec):
            shard = ShardSpec(*shard)
        shard = ShardSpec.by_load(
            shard.index, shard.count, spec.message_counts(routes)
        )
    cluster = Cluster(
        spec.nnodes,
        machine_factory=factories[machine],
        seed=spec.seed,
        registry=registry,
        tracer=tracer,
        quiescence_leap=quiescence_leap,
        faults=faults,
        shard=shard,
    )
    mpi = MadMPI(cluster)
    inbound = spec.inbound_counts(routes)
    for node in cluster.nodes:
        rank = node.id
        comm = mpi.comm(rank)
        stats = WorkloadStats()
        registry.register(f"workload.node{rank}", stats)
        node.scheduler.spawn(
            _server_body(spec, comm, rank, inbound[rank], stats),
            0,
            name=f"srv{rank}",
        )
        node.scheduler.spawn(
            _client_body(spec, comm, rank, routes[rank], stats),
            1 % node.machine.ncores,
            name=f"cli{rank}",
        )
    #: kept for callers that want to poke at the stack after the run
    cluster.mpi = mpi
    cluster.workload_spec = spec
    return cluster


def expected_counters(spec: WorkloadSpec) -> dict:
    """What a complete run must have done — checked against the merged
    snapshot by the bench and tests (an *honesty* gate: a run that
    silently stalled or skipped requests cannot pass)."""
    total = spec.total_requests()
    return {
        "issued": total,
        "served": total,
        "replies": total if spec.arrival == "closed" else 0,
        "collectives": spec.collective_rounds() * spec.nnodes,
    }


def verify_completion(snapshot: dict, spec: WorkloadSpec) -> None:
    """Raise unless the merged snapshot shows every request completed."""
    want = expected_counters(spec)
    got = {
        key: sum(
            v for path, v in snapshot.items()
            if path.startswith("workload.") and path.endswith(f".{key}")
        )
        for key in want
    }
    if got != want:
        raise RuntimeError(
            f"workload incomplete: expected {want}, got {got} "
            f"(virtual-time bound too tight, or a stall)"
        )
