"""Golden determinism check: a seeded cluster scenario, run twice, must be
bit-identical across every observable — event counts, final virtual time,
the full metrics snapshot, and the trace stream.

This is the regression net for host-speed work on the event core and the
scheduler fast paths: any optimization that reorders ties, skips a counter
or perturbs the rng stream shows up here as a diff, not as a subtly wrong
benchmark number three PRs later.
"""

import re

from repro.cluster.cluster import Cluster
from repro.core.manager import PIOMan
from repro.core.progress import piom_wait
from repro.core.task import LTask
from repro.mpi import MadMPI
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.sim.trace import Tracer
from repro.threads.scheduler import Scheduler
from repro.topology.builder import kwak
from repro.topology.cpuset import CpuSet

#: request/message ids are allocated from process-global counters (unique
#: per *process* for debugging, like Frame.seq) — normalize them so two
#: runs inside one test process compare equal on everything that reflects
#: simulation state.
_GLOBAL_ID = re.compile(r"#\d+")


def _run_scenario(seed: int, summary_fastpath: bool = True):
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    cl = Cluster(
        3, seed=seed, tracer=tracer, registry=registry,
        summary_fastpath=summary_fastpath,
    )
    mpi = MadMPI(cl)
    comms = [mpi.comm(i) for i in range(3)]

    def sender(comm, dst, tag):
        def body(ctx):
            yield from comm.send(ctx.core_id, dst, tag, 32 * 1024, payload=b"x")

        return body

    def receiver(comm, src, tag):
        def body(ctx):
            yield from comm.recv(ctx.core_id, src, tag)

        return body

    # a small ring: 0 -> 1 -> 2 -> 0, plus a reverse message 2 -> 1
    cl.nodes[0].scheduler.spawn(sender(comms[0], 1, 1), 0)
    cl.nodes[1].scheduler.spawn(receiver(comms[1], 0, 1), 0)
    cl.nodes[1].scheduler.spawn(sender(comms[1], 2, 2), 1)
    cl.nodes[2].scheduler.spawn(receiver(comms[2], 1, 2), 0)
    cl.nodes[2].scheduler.spawn(sender(comms[2], 0, 3), 1)
    cl.nodes[0].scheduler.spawn(receiver(comms[0], 2, 3), 1)
    cl.nodes[2].scheduler.spawn(sender(comms[2], 1, 4), 2)
    cl.nodes[1].scheduler.spawn(receiver(comms[1], 2, 4), 2)
    cl.run(until=50_000_000)
    return (
        cl.engine.fired,
        cl.engine.now,
        registry.snapshot(),
        [
            (r.time, r.category, r.actor, _GLOBAL_ID.sub("#", r.message))
            for r in tracer.records
        ],
    )


def _run_contended(seed: int, summary_fastpath: bool = True):
    """Four submitters on kwak, one per NUMA node, each submitting and
    spin-waiting on tasks whose CPU set is the whole machine, one NUMA
    node or one non-submitting core: pollers race for the wide queues
    and lose dequeue races."""
    machine, engine = kwak(), Engine()
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    sched = Scheduler(machine, engine, rng=Rng(seed), tracer=tracer, registry=registry)
    pio = PIOMan(machine, engine, sched, tracer=tracer, registry=registry,
                 summary_fastpath=summary_fastpath)
    homes = (0, 4, 8, 12)
    workers = [c for c in range(machine.ncores) if c not in homes]
    rng = Rng(seed)
    for home in homes:
        mine = []
        for i in range(20):
            kind = rng.randint(0, 2)
            if kind == 0:
                cpuset = machine.all_cores()
            elif kind == 1:
                node = rng.randint(0, 3)
                cpuset = CpuSet.range(4 * node, 4 * node + 4)
            else:
                cpuset = CpuSet.single(workers[rng.randint(0, len(workers) - 1)])
            mine.append(LTask(None, cpuset=cpuset, name=f"s{home}.{i}"))

        def body(ctx, mine=mine):
            for task in mine:
                yield from pio.submit(ctx.core_id, task)
                yield from piom_wait(pio, ctx.core_id, task, mode="spin")

        sched.spawn(body, home)
    engine.run(until=100_000_000)
    return (
        engine.fired,
        engine.now,
        registry.snapshot(),
        [(r.time, r.category, r.actor, r.message) for r in tracer.records],
    )


def test_seeded_cluster_run_is_bit_identical():
    a = _run_scenario(seed=42)
    b = _run_scenario(seed=42)
    assert a[0] == b[0], "event counts diverged"
    assert a[1] == b[1], "final virtual time diverged"
    assert a[2] == b[2], "metrics snapshot diverged"
    assert a[3] == b[3], "trace streams diverged"
    # sanity: the scenario actually exercised the stack
    assert a[0] > 1000
    assert len(a[3]) > 0


def test_different_seed_diverges():
    """The check above would be vacuous if the scenario ignored the seed."""
    a = _run_scenario(seed=42)
    c = _run_scenario(seed=43)
    assert (a[0], a[1]) != (c[0], c[1])


def test_summary_fastpath_is_bit_identical_to_slow_path():
    """The occupancy-summary fast path is a pure host-speed optimization:
    with it on (the default) and off, the virtual outcome — events fired,
    final time, every metric except the fast path's own hit counters, and
    the trace — must match to the bit.  This is what licenses shipping it
    enabled by default.  Two worlds: the MPI ring, and submitters
    contending for shared queues, where passes that see work race other
    cores."""
    strip = lambda snap: {k: v for k, v in snap.items() if ".summary." not in k}
    for run in (_run_scenario, _run_contended):
        on = run(seed=42, summary_fastpath=True)
        off = run(seed=42, summary_fastpath=False)
        name = run.__name__
        assert on[0] == off[0], f"{name}: event counts diverged"
        assert on[1] == off[1], f"{name}: final virtual time diverged"
        assert strip(on[2]) == strip(off[2]), f"{name}: metrics snapshot diverged"
        assert on[3] == off[3], f"{name}: trace streams diverged"
        # the fast path's own counters exist (and only differ in the hit mix)
        assert any(".summary." in k for k in on[2])
    # sanity: the contended world (run last) really lost dequeue races
    assert any(k.endswith(".lost_races") and v for k, v in on[2].items())
