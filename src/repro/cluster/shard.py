"""Sharded cluster simulation with conservative-lookahead time sync.

The single-process interpreter is the scaling wall: one Python event
loop advances every node of the simulated cluster.  This module
partitions a :class:`~repro.cluster.cluster.Cluster`'s nodes across K
shards on K processes (a :class:`~repro.par.ShardPool`): the calling
process hosts shard 0 and K-1 forked processes host the rest, each
shard running its own :class:`~repro.sim.engine.Engine` over its nodes'
share of the fabric, synchronized by the classic conservative
("CMB-style") window protocol:

* **Lookahead** ``L`` — the fabric's minimum possible wire time: a frame
  transmitted at time *t* cannot arrive before ``t + L``
  (:meth:`repro.net.fabric.Fabric.min_lookahead_ns`; fault reordering
  only *adds* delay, and a dropped frame's retransmit departs later
  still, so faults never shrink it).
* **Window** — the coordinator computes ``T_min`` = the minimum over
  every shard's next local event time (PR 9's
  ``Engine.next_external_time``) and every in-flight cross-shard frame's
  arrival time, then grants the horizon ``H = T_min + L``.  Every shard
  injects the frames addressed to it, runs ``engine.run(until=H)``, and
  returns the frames it emitted (captured by the fabric's
  ``remote_sink`` instead of being scheduled locally).
* **Safety** — any event fired inside the window happens at ``>= T_min``,
  so any frame it transmits arrives at ``>= T_min + L = H``: strictly
  inside the *next* window.  No shard ever receives an event in its
  past; there is no rollback, and the execution is deterministic by
  construction.

Which shard hosts a node is the builder's choice, made through the
:class:`~repro.cluster.cluster.ShardSpec` it hands to ``Cluster``:
round-robin by default, or an ownership table dealt from the spec's
traffic (:func:`~repro.cluster.workload.build_workload_cluster` does
this).  The coordinator routes frames by the node lists the shards
report, so routing and instantiation read the same table.

Identity, not just determinism: every RNG and id stream is per entity
(wire jitter per source rail, probe phases and fault streams per node,
per-NMad message ids), so every node computes exactly the same event
sequence regardless of which process hosts it — any
:class:`~repro.cluster.cluster.Cluster` can be sharded — and the union
of the shards' metric snapshots and the multiset of their trace records
are **bit-identical** to the single-process run at any shard count and
under any ownership — ``run_sharded(..., nshards=1)`` is the
single-process reference, and the test suite and CI gate compare
fingerprints across shard counts.  One exception is known: frames sent
in the same nanosecond by nodes on different shards that reach one node
at the same instant.  One process delivers them in the order the two
sends interleaved, which no shard sees; the coordinator injects them by
sending node (:func:`_inbox`), which matches when the senders run in
node order and cannot when one frame is local to the receiving shard
(docs/SCALING.md, "Identity, not just determinism").

Blocked actors: a shard whose queue drains while threads wait on
cross-shard receives is *not* deadlocked — the wake-up frame is in
flight.  The shard runner therefore masks the engine's per-window
deadlock check and the coordinator re-asserts it globally: if the whole
cluster drains with blocked actors somewhere, that is a real
:class:`~repro.sim.engine.DeadlockError`.

A shard that fails to build, or fails inside the window loop — an
exception on the hosted shard or in a forked one, a death or a timeout —
surfaces as :class:`~repro.par.ShardPoolError` naming the shard (and, in
the window loop, the window index and the horizon) with a one-line
serial reproducer.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import resource
import time as _time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.par.jobs import JobSpec, resolve_target
from repro.sim.engine import DeadlockError

#: tag for workload builders: positional signature is fn(shard=..., **kwargs)
BuilderRef = str


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class ShardRunner:
    """In-worker harness: one cluster shard advanced window by window.

    Lives in a :class:`~repro.par.ShardPool` state slot: in the calling
    process for shard 0 (and for every shard in serial mode), in a
    forked worker otherwise.  The coordinator talks to it exclusively
    through the public methods, all of which return picklable data.
    ``coordinator`` is the pid of the process that goes on after the run.
    """

    def __init__(self, cluster, coordinator: int) -> None:
        self._coordinator = coordinator
        self.cluster = cluster
        self.engine = cluster.engine
        self.fabric = cluster.fabric
        self.windows = 0
        #: host seconds spent inside windows (injection + engine run)
        self.compute_s = 0.0
        #: frames leaving this shard in the current window:
        #: (arrive_at, dst_node, driver_name, rail_index, frame)
        self._outbox: list[tuple] = []
        self.fabric.remote_sink = self._capture
        #: deadlock reporters are masked per window and re-checked
        #: globally by the coordinator (module docstring)
        self._reporters = self.engine.blocked_reporters

    def _capture(self, src_nic, frame, arrive_at: int) -> None:
        self._outbox.append(
            (arrive_at, frame.dst_node, src_nic.driver.name, src_nic.index, frame)
        )

    # -- protocol -------------------------------------------------------
    def node_ids(self) -> tuple[int, list[int]]:
        """``(global node count, ids of the nodes this shard hosts)``."""
        return self.cluster.nnodes, sorted(self.cluster.node_by_id)

    def lookahead_ns(self) -> Optional[int]:
        """This shard's lower bound on cross-shard latency (None: no NICs)."""
        return self.fabric.min_lookahead_ns()

    def next_time(self) -> Optional[int]:
        """Earliest live local event, or None when locally drained."""
        return self.engine.next_external_time(set())

    def window(self, frames: Sequence[tuple], hi: int):
        """Inject inbound cross-shard frames, advance to ``hi``.

        Returns ``(outbox, next_time, now, fired)``.  Injection uses
        ``post_at`` — an arrival below ``engine.now`` would raise, which
        is exactly the lookahead-violation alarm we want.
        """
        t0 = _time.perf_counter()
        for arrive_at, dst_node, driver_name, rail, frame in frames:
            nic = self.fabric.nic_of(dst_node, driver_name, rail)
            self.engine.post_at(arrive_at, nic._deliver, frame)
        self.engine.blocked_reporters = []
        try:
            self.engine.run(until=hi)
        finally:
            self.engine.blocked_reporters = self._reporters
        self.windows += 1
        self.compute_s += _time.perf_counter() - t0
        outbox, self._outbox = self._outbox, []
        return outbox, self.next_time(), self.engine.now, self.engine.fired

    def finalize(self) -> dict:
        """End-of-run report: metrics, trace records, liveness, and the
        host diagnostics (peak RSS, summed window compute seconds).

        The runner's last call.  In the coordinator, which hosts shard 0
        (and every shard of a serial run), it then drops its world and
        collects it, so the reports merge in the memory that world held.
        A forked shard exits after its report: it keeps its world, whose
        collection would cost it time and lower no peak.
        """
        report = self._report()
        if os.getpid() == self._coordinator:
            # Every reference goes, or the collection frees nothing: the
            # engine, the fabric (whose remote sink points back here) and
            # the masked deadlock reporters each reach the whole world.
            self.cluster = self.engine = self.fabric = self._reporters = None
            gc.collect()
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return report

    def _report(self) -> dict:
        registry = getattr(self.cluster, "registry", None)
        snapshot = registry.snapshot() if registry is not None else {}
        tracer = getattr(self.cluster, "tracer", None)
        records: list[tuple] = []
        dropped = 0
        if tracer is not None and getattr(tracer, "enabled", False):
            records = [
                (
                    rec.time,
                    rec.category,
                    rec.actor,
                    rec.message,
                    _stable_data(rec.data),
                )
                for rec in tracer.records
            ]
            dropped = tracer.dropped
        return {
            "snapshot": snapshot,
            "trace_records": records,
            "trace_dropped": dropped,
            "blocked": self.engine.blocked_actors(),
            "pending": self.engine.pending(),
            "now": self.engine.now,
            "fired": self.engine.fired,
            "windows": self.windows,
            "compute_s": self.compute_s,
        }


def _stable_data(data: Optional[dict]) -> str:
    """A canonical rendering of a trace record's data dict."""
    if not data:
        return ""
    return repr(sorted((str(k), repr(v)) for k, v in data.items()))


def _make_runner(
    *, builder: str, kwargs: dict, index: int, count: int, coordinator: int
):
    """ShardPool spec target: build shard ``index``'s cluster + runner;
    ``coordinator`` is the pid of the process that called
    :func:`run_sharded`."""
    from repro.cluster.cluster import ShardSpec

    fn = resolve_target(builder)
    cluster = fn(shard=ShardSpec(index, count), **kwargs)
    return ShardRunner(cluster, coordinator)


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
@dataclass
class ShardRunResult:
    """Merged outcome of one sharded run.

    ``maxrss_kb``, ``shard_compute_s`` and ``coordinator_wait_s`` are
    host diagnostics, free to differ run to run; :meth:`fingerprint`
    never reads them.  ``maxrss_kb[k]`` is forked shard *k*'s peak RSS,
    and 0 for a shard hosted in the calling process, whose own peak
    already covers it (so the caller's peak plus the sum counts every
    process once).  ``shard_compute_s[k]`` is shard *k*'s summed
    in-window host time; ``coordinator_wait_s`` is how long the caller
    waited for forked replies after its own window, summed over windows.
    """

    nshards: int
    serial: bool
    until: Optional[int]
    virtual_ns: int
    fired: int
    windows: int
    lookahead_ns: int
    wall_ms: float
    snapshot: dict = field(default_factory=dict)
    trace_fingerprint: str = ""
    trace_records: int = 0
    maxrss_kb: list = field(default_factory=list)
    shard_fired: list = field(default_factory=list)
    shard_nodes: list = field(default_factory=list)
    shard_compute_s: list = field(default_factory=list)
    coordinator_wait_s: float = 0.0

    @property
    def events_per_sec(self) -> float:
        return self.fired / (self.wall_ms / 1e3) if self.wall_ms > 0 else 0.0

    def fingerprint(self) -> str:
        """Identity digest: metric snapshot + final virtual time + event
        count (+ trace fingerprint when tracing was on).  Equal digests
        across shard counts == bit-identical simulation."""
        body = json.dumps(
            {
                "snapshot": self.snapshot,
                "virtual_ns": self.virtual_ns,
                "fired": self.fired,
                "trace": self.trace_fingerprint,
            },
            sort_keys=True,
        )
        return hashlib.sha256(body.encode()).hexdigest()

    def to_jsonable(self) -> dict:
        return {
            "nshards": self.nshards,
            "serial": self.serial,
            "until": self.until,
            "virtual_ns": self.virtual_ns,
            "fired": self.fired,
            "windows": self.windows,
            "lookahead_ns": self.lookahead_ns,
            "wall_ms": round(self.wall_ms, 3),
            "events_per_sec": round(self.events_per_sec, 1),
            "fingerprint": self.fingerprint(),
            "trace_fingerprint": self.trace_fingerprint,
            "trace_records": self.trace_records,
            "maxrss_kb": self.maxrss_kb,
            "shard_fired": self.shard_fired,
            "shard_nodes": self.shard_nodes,
            "shard_compute_s": [round(c, 4) for c in self.shard_compute_s],
            "coordinator_wait_s": round(self.coordinator_wait_s, 4),
        }


def _merge_trace(finals: Sequence[dict]) -> tuple[str, int]:
    """Order-independent digest over the union of shard trace records.

    Records are compared as a sorted multiset of canonical tuples — the
    per-shard *interleaving* differs (each shard only logs its nodes),
    but the union must match the single-process tracer record for
    record.  Returns ("", 0) when no shard traced anything.
    """
    all_records: list[tuple] = []
    for final in finals:
        all_records.extend(tuple(rec) for rec in final["trace_records"])
    if not all_records and not any(f["trace_dropped"] for f in finals):
        return "", 0
    all_records.sort()
    digest = hashlib.sha256()
    for rec in all_records:
        digest.update(repr(rec).encode())
    return digest.hexdigest(), len(all_records)


def run_sharded(
    builder: BuilderRef,
    kwargs: Optional[dict] = None,
    *,
    nshards: int,
    until: Optional[int] = None,
    serial: bool = False,
    timeout_s: Optional[float] = 600.0,
) -> ShardRunResult:
    """Simulate a cluster partitioned over ``nshards`` shards: this
    process hosts shard 0 and ``nshards - 1`` forked processes the rest.

    ``builder`` is a ``"pkg.mod:func"`` reference to a module-level
    function ``fn(shard: ShardSpec, **kwargs) -> Cluster`` that builds
    the shard's slice of the world (it must pass ``shard`` — or a
    :class:`ShardSpec` with the same index and count and an ownership
    table — through to ``Cluster(...)`` and attach any registry/tracer
    to the cluster).  ``nshards=1`` is the single-process reference run
    — same builder, same protocol, one shard, nothing forked.

    ``serial=True`` keeps every shard in-process (deterministically
    identical, no speedup).  ``timeout_s`` bounds each forked shard's
    reply.  ``until`` bounds the run like :meth:`repro.sim.Engine.run`'s.
    """
    from repro.obs.merge import union_snapshots
    from repro.par.shardpool import ShardPool, ShardPoolError

    if nshards < 1:
        raise ValueError("need at least one shard")
    if until is not None and not math.isfinite(until):
        raise ValueError(f"cannot run until {until!r} ns: not a finite time")
    specs = [
        JobSpec(
            name=f"shard{k}",
            target="repro.cluster.shard:_make_runner",
            kwargs={
                "builder": builder,
                "kwargs": dict(kwargs or {}),
                "index": k,
                "count": nshards,
                "coordinator": os.getpid(),
            },
        )
        for k in range(nshards)
    ]

    def reproduce(**bound) -> str:
        """The one-line serial rerun of this call, with ``bound`` added."""
        extra = "".join(f", {k}={v!r}" for k, v in bound.items())
        return (
            f"reproduce: run_sharded({builder!r}, {dict(kwargs or {})!r}, "
            f"nshards={nshards}, serial=True{extra})"
        )

    t0 = _time.perf_counter()
    try:
        pool = ShardPool(specs, serial=serial, timeout_s=timeout_s)
    except ShardPoolError as exc:
        raise ShardPoolError(
            f"{exc}\n{reproduce()}", shard=exc.shard
        ) from (exc.__cause__ or exc)
    with pool:
        bounds = [b for b in pool.broadcast("lookahead_ns") if b is not None]
        if not bounds:
            raise ValueError("no NICs registered in any shard — nothing to sync")
        lookahead = min(bounds)
        if lookahead < 1:
            raise ValueError(f"non-positive lookahead {lookahead}ns")
        node_reports = pool.broadcast("node_ids")
        owner = _owner_map(node_reports)
        next_times = pool.broadcast("next_time")
        inboxes: list[list] = [[] for _ in range(nshards)]
        windows = 0
        drained = False
        wait0 = pool.reply_wait_s
        while True:
            horizon_inputs = [t for t in next_times if t is not None]
            horizon_inputs += [
                entry[0] for inbox in inboxes for entry in inbox
            ]
            if not horizon_inputs:
                drained = True
                break  # global drain: no local events, nothing in flight
            t_min = min(horizon_inputs)
            final = until is not None and t_min > until
            hi = until if final else t_min + lookahead
            if until is not None and hi > until:
                hi = until
            try:
                replies = pool.scatter(
                    "window", [(inbox, hi) for inbox in inboxes]
                )
            except ShardPoolError as exc:
                raise ShardPoolError(
                    f"{exc.shard or 'a shard'} failed in window {windows} "
                    f"(horizon {hi} ns)\n{reproduce(until=hi)}\n{exc}",
                    shard=exc.shard,
                ) from (exc.__cause__ or exc)
            windows += 1
            # sent[d][s]: the frames shard s sent to shard d's nodes
            sent: list[list[list]] = [[[] for _ in replies] for _ in range(nshards)]
            next_times = []
            for src, (outbox, next_t, _now, _fired) in enumerate(replies):
                next_times.append(next_t)
                for entry in outbox:
                    sent[owner[entry[1]]][src].append(tuple(entry))
            inboxes = [_inbox(froms) for froms in sent]
            if final:
                break
        wait_s = pool.reply_wait_s - wait0
        finals = pool.broadcast("finalize")
        forked = [pid is not None for pid in pool.pids]
    wall_ms = (_time.perf_counter() - t0) * 1e3

    # An ``until``-capped exit legitimately leaves actors blocked on
    # events beyond the bound; only a *global drain* with blocked actors
    # is a deadlock (each shard's local check is masked per window, so
    # this is where the whole-cluster assertion lives).
    blocked = sum(final["blocked"] for final in finals)
    if drained and blocked:
        raise DeadlockError(
            f"cluster drained at t={max(f['now'] for f in finals)} ns with "
            f"{blocked} actor(s) still blocked (across {nshards} shard(s))"
        )
    # the shards' snapshots go as they are merged: none outlives the union
    snapshot = union_snapshots([final.pop("snapshot") for final in finals])
    trace_fp, trace_n = _merge_trace(finals)
    return ShardRunResult(
        nshards=nshards,
        serial=serial,
        until=until,
        virtual_ns=max(final["now"] for final in finals),
        fired=sum(final["fired"] for final in finals),
        windows=windows,
        lookahead_ns=lookahead,
        wall_ms=wall_ms,
        snapshot=snapshot,
        trace_fingerprint=trace_fp,
        trace_records=trace_n,
        maxrss_kb=[
            final["maxrss_kb"] if fork else 0
            for final, fork in zip(finals, forked)
        ],
        shard_fired=[final["fired"] for final in finals],
        shard_nodes=[ids for _, ids in node_reports],
        shard_compute_s=[final["compute_s"] for final in finals],
        coordinator_wait_s=wait_s,
    )


def _inbox(froms: Sequence[list]) -> list:
    """A shard's inbox, from the frames each shard sent it, in the order
    one process would post their deliveries: that is the frames' seq
    order, which decides between equal arrival times.

    One process posts a delivery the instant its frame is sent, so ties
    go in send order.  Each source shard lists its frames in its own
    send order, which a stable sort by ``(arrival, send time)`` keeps.
    Frames sent in the same nanosecond by nodes on different shards are
    merged by sending node, the order in which one process runs nodes
    built alike; when the single-process order is another, or when one
    of the frames is local to the receiving shard, the sharded run can
    differ (docs/SCALING.md).
    """
    runs = [sorted(frames, key=_arrival) for frames in froms if frames]
    if len(runs) < 2:
        return runs[0] if runs else []
    return list(heapq.merge(*runs, key=_arrival_by_node))


def _arrival(entry: tuple) -> tuple[int, int]:
    return entry[0], entry[4].sent_at


def _arrival_by_node(entry: tuple) -> tuple[int, int, int]:
    return entry[0], entry[4].sent_at, entry[4].src_node


def _owner_map(reports: Sequence[tuple]) -> dict[int, int]:
    """Node id -> shard index, from every shard's ``node_ids()`` report.

    Frames are routed by what the shards actually instantiated, so
    routing and ``Cluster`` read the same ownership table; a node that
    two shards or no shard claims means their tables differ."""
    owner: dict[int, int] = {}
    for index, (_, ids) in enumerate(reports):
        for node_id in ids:
            if owner.setdefault(node_id, index) != index:
                raise ValueError(
                    f"node {node_id} is owned by shards {owner[node_id]} and "
                    f"{index}: the shards' ownership tables differ"
                )
    nnodes = reports[0][0]
    if len(owner) != nnodes:
        raise ValueError(
            f"{nnodes - len(owner)} of {nnodes} node(s) owned by no shard: "
            "the shards' ownership tables differ"
        )
    return owner
