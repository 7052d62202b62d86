"""The benchmark's four workloads, one repetition each.

Every workload is a function ``(seed, size, probe, **test_knobs) ->
Outcome`` that builds its world through the package's public entry
points, calls ``probe.setup_done()`` when the world is built, runs the
simulation, calls ``probe.run_done()``, and only then inspects the
result.  The digest covers what a user observes from outside the
simulator (operation completion times, the workload generator's
counters, the makespan) and nothing about how the simulator got there,
so event-count or host-counter changes never move it while any change
to the simulated world does.

Sizes are named: ``full`` is the measured configuration, ``smoke`` is a
small copy for the tests and CI.  The cluster workloads' sizes are
``WorkloadSpec`` fields; the PIOMan workloads' are operation counts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("pioman_busy", "idle_poll", "cluster_rpc", "cluster_sharded")

SIZES = {
    "full": {
        "pioman_busy": {"submitters": 4, "round_trips": 2500},
        "idle_poll": {"tasks": 280, "gap_ns": 20_000},
        "cluster_rpc": {"nnodes": 16, "requests_per_node": 24},
        "cluster_sharded": {"nnodes": 64, "requests_per_node": 8},
    },
    "smoke": {
        "pioman_busy": {"submitters": 4, "round_trips": 150},
        "idle_poll": {"tasks": 40, "gap_ns": 20_000},
        "cluster_rpc": {"nnodes": 8, "requests_per_node": 4},
        "cluster_sharded": {"nnodes": 16, "requests_per_node": 4},
    },
}

#: the cluster factory the sharded workload runs, by import path (forked
#: shards resolve it themselves)
CLUSTER_FACTORY = "repro.cluster.workload:build_workload_cluster"
#: per-node machine of both cluster workloads
CLUSTER_MACHINE = "smp1x2"
#: idle_poll keeps its submitting thread alive this long after the last
#: submit, so the last task completes while the other cores still poll
IDLE_MARGIN_NS = 100_000


@dataclass
class Outcome:
    """What one repetition observed; ``problems`` lists failed checks."""

    attempted: int
    completed: int
    digest: str
    fired: int
    snapshot: dict
    problems: list = field(default_factory=list)
    shard_rss_kb: list = field(default_factory=list)


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _pioman_outcome(engine, pioman, registry, tasks) -> Outcome:
    done = [t.complete_time for t in tasks]
    finished = [t for t in done if t is not None]
    makespan = max(finished, default=0)
    problems = []
    if pioman.stats.submits != pioman.stats.executions:
        problems.append(
            f"{pioman.stats.submits} submits but "
            f"{pioman.stats.executions} executions"
        )
    return Outcome(
        attempted=len(tasks),
        completed=len(finished),
        digest=digest({"completions": done, "makespan": makespan}),
        fired=engine.fired,
        snapshot=registry.snapshot(),
        problems=problems,
    )


def pioman_busy(seed: int, size: str, probe, *, deadline_ns: Optional[int] = None) -> Outcome:
    """Closed-loop submit -> spin-wait round trips on the 16-core NUMA host.

    One submitter per NUMA node; each task's CPU set is drawn from a
    per-submitter stream: the whole machine, one NUMA node, or one core
    that runs no submitter (a spinning submitter only polls at timer
    ticks, which would turn the workload into a timer benchmark).
    """
    from repro import CpuSet, Engine, LTask, MetricsRegistry, PIOMan, Scheduler, kwak, piom_wait
    from repro.par import derive_seed
    from repro.sim.rng import Rng

    p = SIZES[size]["pioman_busy"]
    machine = kwak()
    engine = Engine()
    registry = MetricsRegistry()
    sched = Scheduler(machine, engine, rng=Rng(seed), registry=registry)
    pioman = PIOMan(machine, engine, sched, registry=registry)
    per_numa = machine.ncores // p["submitters"]
    homes = [k * per_numa for k in range(p["submitters"])]
    workers = [c for c in range(machine.ncores) if c not in homes]
    tasks: list = []
    for k, home in enumerate(homes):
        rng = Rng(derive_seed(seed, f"submitter{k}"))
        mine = []
        for i in range(p["round_trips"]):
            kind = rng.randint(0, 2)
            if kind == 0:
                cpuset = machine.all_cores()
            elif kind == 1:
                node = rng.randint(0, p["submitters"] - 1)
                cpuset = CpuSet.range(node * per_numa, (node + 1) * per_numa)
            else:
                cpuset = CpuSet.single(workers[rng.randint(0, len(workers) - 1)])
            mine.append(LTask(None, cpuset=cpuset, name=f"s{k}.{i}"))
        tasks.extend(mine)

        def body(ctx, mine=mine):
            for task in mine:
                yield from pioman.submit(ctx.core_id, task)
                yield from piom_wait(pioman, ctx.core_id, task, mode="spin")

        sched.spawn(body, home, name=f"submitter{k}")
    probe.setup_done()
    engine.run(until=deadline_ns if deadline_ns is not None else len(tasks) * 1_000_000)
    probe.run_done()
    return _pioman_outcome(engine, pioman, registry, tasks)


def idle_poll(seed: int, size: str, probe, *, deadline_ns: Optional[int] = None) -> Outcome:
    """A communication library between messages on the 24-core chiplet host.

    One thread submits a single-core task every ``gap_ns`` while the
    other 23 cores spin-poll (``true_spin``) a nearly empty hierarchy.
    """
    from repro import CpuSet, Engine, LTask, MetricsRegistry, PIOMan, Scheduler
    from repro.par import derive_seed
    from repro.sim.rng import Rng
    from repro.threads.instructions import Compute
    from repro.topology import MACHINES

    p = SIZES[size]["idle_poll"]
    gap = p["gap_ns"]
    machine = MACHINES["ccx24"]()
    engine = Engine()
    registry = MetricsRegistry()
    sched = Scheduler(machine, engine, rng=Rng(seed), true_spin=True, registry=registry)
    pioman = PIOMan(machine, engine, sched, registry=registry)
    rng = Rng(derive_seed(seed, "targets"))
    tasks = [
        LTask(None, cpuset=CpuSet.single(1 + rng.randint(0, machine.ncores - 2)), name=f"t{i}")
        for i in range(p["tasks"])
    ]

    def submitter(ctx):
        for i, task in enumerate(tasks):
            wait = (i + 1) * gap - ctx.now
            if wait > 0:
                yield Compute(wait)
            yield from pioman.submit(ctx.core_id, task)
        yield Compute(IDLE_MARGIN_NS)

    sched.spawn(submitter, 0, name="submitter")
    probe.setup_done()
    engine.run(until=deadline_ns)
    probe.run_done()
    return _pioman_outcome(engine, pioman, registry, tasks)


def _cluster_spec(name: str, seed: int, size: str):
    """Both cluster workloads are closed loops with fixed peers, a fixed
    think time and a fixed protocol per message.  The makespan is the
    slowest node's chain and the host work follows the polling that
    waits cause, so every coin the generator can flip per request moved
    them from seed to seed: random arrival gaps, an 80% hotspot or random
    peers by 5-30%, a 25% rendezvous coin by 5-14% (measured over 10
    seeds).  What remains random is message sizes, link jitter and probe
    phases."""
    from repro.cluster.workload import WorkloadSpec

    p = SIZES[size][name]
    if name == "cluster_rpc":
        # every request rendezvous-sized, every reply an eager ack
        return WorkloadSpec(
            nnodes=p["nnodes"], requests_per_node=p["requests_per_node"],
            pattern="ring", arrival="closed", mean_gap_ns=0, think_ns=100_000,
            rdv_fraction=1.0, seed=seed,
        )
    return WorkloadSpec(
        nnodes=p["nnodes"], requests_per_node=p["requests_per_node"],
        pattern="incast", incast_fanin=8, arrival="closed", mean_gap_ns=0,
        think_ns=100_000, size_bytes=1024, collective_every=4, seed=seed,
    )


def _cluster_outcome(spec, probe, snapshot: dict, drain_ns: int, fired: int) -> Outcome:
    from repro.cluster.workload import expected_counters

    counters = {k: v for k, v in snapshot.items() if k.startswith("workload.node")}
    want = expected_counters(spec)
    got = {
        key: sum(v for k, v in counters.items() if k.endswith(f".{key}"))
        for key in want
    }
    done_key = "replies" if spec.arrival == "closed" else "served"
    problems = [
        f"{key}: expected {want[key]}, got {got[key]}"
        for key in want
        if key != done_key and got[key] != want[key]
    ]
    return Outcome(
        attempted=want["issued"],
        completed=got[done_key],
        digest=digest({
            "workload": counters, "drain_ns": drain_ns, "makespan": probe.makespan_ns(),
        }),
        fired=fired,
        snapshot=snapshot,
        problems=problems,
    )


def cluster_rpc(seed: int, size: str, probe, *, deadline_ns: Optional[int] = None) -> Outcome:
    """Request/reply around a ring over mpi -> nmad -> net, rendezvous
    requests and eager replies, in one process."""
    from repro.cluster.workload import build_workload_cluster

    spec = _cluster_spec("cluster_rpc", seed, size)
    cluster = build_workload_cluster(None, spec=spec, machine=CLUSTER_MACHINE)
    probe.setup_done()
    cluster.run(until=deadline_ns if deadline_ns is not None else spec.suggest_until())
    probe.run_done()
    return _cluster_outcome(
        spec, probe, cluster.registry.snapshot(), cluster.engine.now, cluster.engine.fired
    )


def cluster_sharded(
    seed: int, size: str, probe, *,
    deadline_ns: Optional[int] = None, nshards: int = 2, serial: bool = False,
) -> Outcome:
    """Eager incast fan-in (groups of 7 clients per sink) with an
    allreduce every 4 requests, split over forked shards.  ``probe`` marks set-up
    done at the first ``ShardPool.scatter``, after the fork and the shard
    builds.
    """
    from repro.cluster.shard import run_sharded

    spec = _cluster_spec("cluster_sharded", seed, size)
    result = run_sharded(
        CLUSTER_FACTORY, {"spec": spec, "machine": CLUSTER_MACHINE},
        nshards=nshards, serial=serial, until=deadline_ns,
    )
    probe.run_done()
    out = _cluster_outcome(spec, probe, result.snapshot, result.virtual_ns, result.fired)
    out.shard_rss_kb = [] if result.serial else list(result.maxrss_kb)
    return out


RUNNERS = {
    "pioman_busy": pioman_busy,
    "idle_poll": idle_poll,
    "cluster_rpc": cluster_rpc,
    "cluster_sharded": cluster_sharded,
}
