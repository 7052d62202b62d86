"""Sharded-cluster identity: the partitioning must be invisible.

The load-bearing contract of :mod:`repro.cluster.shard` is that the
merged metric snapshot and the multiset of trace records are
**bit-identical** to the single-process run at any shard count, faults
on or off, forked or serial — and stable across repeated runs in one
process (a regression guard for heap-layout-dependent behaviour: the
scan-pass dedup used to key on ``id(task)``, so a recycled address could
flip a pass outcome depending on allocator history).  Around it: the
ownership table the workload builder deals from the spec's traffic, the
hosted shard 0 (K shards on K processes), the host-side telemetry the
fingerprint ignores, and window failures that name where they happened.
"""

import os

import pytest

from repro.cluster import shard as shard_mod
from repro.cluster.cluster import Cluster, ShardSpec
from repro.cluster.shard import run_sharded
from repro.cluster.workload import (
    WorkloadSpec,
    build_workload_cluster,
    verify_completion,
)
from repro.faults import FaultPlan, NetFaults
from repro.mpi import MadMPI
from repro.net.fabric import Fabric
from repro.obs.registry import MetricsRegistry
from repro.par import ShardPoolError
from repro.par.pool import has_fork
from repro.threads.instructions import Sleep
from repro.topology.builder import smp

BUILDER = "repro.cluster.workload:build_workload_cluster"
PLAIN_BUILDER = "tests.cluster.test_shard:build_plain_ring"

needs_fork = pytest.mark.skipif(not has_fork(), reason="platform cannot fork")


def small_spec(**overrides) -> WorkloadSpec:
    base = dict(
        nnodes=6, requests_per_node=3, pattern="ring", arrival="closed",
        mean_gap_ns=20_000, think_ns=5_000, rdv_fraction=0.5, seed=3,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def build_plain_ring(shard=None, *, nnodes, msgs, seed, faults):
    """A default-built cluster — default jittered IB driver, no build
    option beyond the fault plan — where every node sends ``msgs`` eager
    messages to its right neighbour and receives as many from its left."""
    registry = MetricsRegistry()
    cluster = Cluster(
        nnodes, machine_factory=lambda: smp(1, 2), seed=seed,
        registry=registry, faults=faults, shard=shard,
    )
    mpi = MadMPI(cluster)
    for node in cluster.nodes:
        rank = node.id
        comm = mpi.comm(rank)
        got = {"received": 0}
        registry.register(f"ring.node{rank}", got)

        def sender(ctx, comm=comm, rank=rank):
            for i in range(msgs):
                yield from comm.send(ctx.core_id, (rank + 1) % nnodes, i, 4096)

        def receiver(ctx, comm=comm, rank=rank, got=got):
            for i in range(msgs):
                yield from comm.recv(ctx.core_id, (rank - 1) % nnodes, i)
                got["received"] += 1

        node.scheduler.spawn(sender, 0, name=f"send{rank}")
        node.scheduler.spawn(receiver, 1, name=f"recv{rank}")
    return cluster


def build_pid_ring(shard=None, **kwargs):
    """The plain ring, plus the pid of the process that built each shard."""
    cluster = build_plain_ring(shard, **kwargs)
    index = 0 if shard is None else shard.index
    cluster.registry.register(f"pid.shard{index}", {"pid": os.getpid()})
    return cluster


def build_failing_ring(shard=None, *, fail_node, fail_at_ns, **kwargs):
    """The plain ring, where node ``fail_node`` runs a thread that raises
    at virtual time ``fail_at_ns``."""
    cluster = build_plain_ring(shard, **kwargs)
    node = cluster.node_by_id.get(fail_node)
    if node is not None:
        def saboteur(ctx):
            yield Sleep(fail_at_ns)
            raise RuntimeError(f"planted failure at {ctx.now} ns")

        node.scheduler.spawn(saboteur, 0, name="saboteur")
    return cluster


def build_failing_on_one(shard=None, **kwargs):
    """The plain ring, except that building shard 1 raises."""
    if shard is not None and shard.index == 1:
        raise RuntimeError("planted build failure")
    return build_plain_ring(shard, **kwargs)


def build_disagreeing(shard=None, **kwargs):
    """Each shard deals by a different load: their tables disagree."""
    skewed = ShardSpec.by_load(
        shard.index, shard.count, [shard.index == i for i in range(4)]
    )
    return build_plain_ring(skewed, **kwargs)


def incast_spec(**overrides) -> WorkloadSpec:
    base = dict(
        nnodes=64, requests_per_node=8, pattern="incast", incast_fanin=8,
        arrival="closed", mean_gap_ns=0, think_ns=100_000, size_bytes=1024,
        collective_every=4, seed=7,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def run_one(spec, nshards, *, serial=True, faults=None, trace=True):
    kwargs = {"spec": spec, "machine": "smp1x2", "trace": trace,
              "faults": faults}
    return run_sharded(BUILDER, kwargs, nshards=nshards, serial=serial)


class TestShardSpec:
    def test_round_robin_ownership(self):
        """Without a table, ownership is ``id % count``."""
        spec = ShardSpec(1, 3)
        owned = [i for i in range(12) if spec.owns(i)]
        assert owned == [1, 4, 7, 10]
        cluster = Cluster(12, machine_factory=lambda: smp(1, 2), shard=(1, 3))
        assert sorted(cluster.node_by_id) == owned

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            ShardSpec(3, 3)
        with pytest.raises(ValueError):
            ShardSpec(-1, 2)
        with pytest.raises(ValueError):
            ShardSpec(0, 0)
        with pytest.raises(ValueError, match="outside"):
            ShardSpec(0, 2, owners=(0, 1, 2))
        with pytest.raises(ValueError, match="covers 3 nodes"):
            Cluster(4, machine_factory=lambda: smp(1, 2),
                    shard=ShardSpec(0, 2, owners=(0, 1, 0)))


class TestOwnershipTable:
    def test_by_load_deals_busiest_first_and_balances_counts(self):
        load = [5, 9, 9, 1, 0, 7, 3]
        owners = [ShardSpec.by_load(0, 3, load).owners[i] for i in range(7)]
        # order by (-load, id): 1, 2, 5, 0, 6, 3, 4 -> shards 0, 1, 2, 0, 1, 2, 0
        assert owners == [0, 0, 1, 2, 0, 2, 1]
        for count in (2, 3, 4, 5):
            table = ShardSpec.by_load(0, count, load).owners
            sizes = [table.count(k) for k in range(count)]
            assert max(sizes) - min(sizes) <= 1

    def test_incast_spreads_the_sinks(self):
        spec = incast_spec()
        owned = [
            set(build_workload_cluster(
                ShardSpec(k, 2), spec=spec, machine="smp1x2"
            ).node_by_id)
            for k in range(2)
        ]
        sinks = set(range(0, spec.nnodes, spec.incast_fanin))
        assert [len(ids & sinks) for ids in owned] == [4, 4]
        assert [len(ids) for ids in owned] == [32, 32]

    def test_ring_keeps_round_robin(self):
        spec = small_spec(nnodes=10)
        for count in (2, 3, 4):
            table = ShardSpec.by_load(0, count, spec.message_counts()).owners
            assert table == tuple(i % count for i in range(spec.nnodes))

    def test_every_shard_computes_the_same_table(self):
        spec = small_spec(nnodes=12, pattern="hotspot", arrival="open")
        clusters = [
            build_workload_cluster(ShardSpec(k, 3), spec=spec, machine="smp1x2")
            for k in range(3)
        ]
        tables = {c.shard.owners for c in clusters}
        assert len(tables) == 1 and None not in tables
        (table,) = tables
        for k, cluster in enumerate(clusters):
            assert sorted(cluster.node_by_id) == [
                i for i in range(spec.nnodes) if table[i] == k
            ]
        # node 0, the hotspot, is the busiest and is dealt first
        assert table[0] == 0

    def test_unsharded_build_computes_no_table(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an unsharded build computed a table")

        monkeypatch.setattr(ShardSpec, "by_load", forbidden)
        monkeypatch.setattr(WorkloadSpec, "message_counts", forbidden)
        cluster = build_workload_cluster(None, spec=small_spec(), machine="smp1x2")
        assert cluster.shard is None

    def test_coordinator_rejects_disagreeing_tables(self):
        kwargs = {"nnodes": 4, "msgs": 1, "seed": 1, "faults": None}
        with pytest.raises(ValueError, match="ownership tables differ"):
            run_sharded("tests.cluster.test_shard:build_disagreeing", kwargs,
                        nshards=2, serial=True)


class TestIdentity:
    def test_bit_identical_at_1_2_4_shards(self):
        spec = small_spec()
        runs = {k: run_one(spec, k) for k in (1, 2, 4)}
        ref = runs[1]
        assert ref.trace_fingerprint, "tracing must be on for this gate"
        for k in (2, 4):
            assert runs[k].snapshot == ref.snapshot, f"snapshot diverged at k={k}"
            assert runs[k].trace_fingerprint == ref.trace_fingerprint
            assert runs[k].fired == ref.fired
            assert runs[k].virtual_ns == ref.virtual_ns
            assert runs[k].fingerprint() == ref.fingerprint()
        verify_completion(ref.snapshot, spec)

    def test_same_instant_arrivals_from_two_shards_keep_send_order(self):
        """RTS frames from nodes 5 and 6, both sent at 2,512 ns, reach
        node 4 at 4,112 ns; one process delivers 5's first.  At 3 shards
        the three nodes sit on three shards, so node 4's inbox mixes two
        source shards, which must not decide the order."""
        spec = small_spec(
            nnodes=8, requests_per_node=4, pattern="incast", incast_fanin=4,
            mean_gap_ns=0, think_ns=20_000, collective_every=2, seed=7,
        )
        ref = run_one(spec, 1, trace=False)
        for k in (2, 3, 4):
            run = run_one(spec, k, trace=False)
            assert run.fired == ref.fired, f"diverged at k={k}"
            assert run.fingerprint() == ref.fingerprint(), f"diverged at k={k}"

    @pytest.mark.xfail(strict=True, reason=(
        "RTS frames from nodes 7 and 8, both sent at 2,998 ns, reach node 0 "
        "at 4,604 ns.  At 3 shards node 8 shares node 0's shard and node 7 "
        "does not: one frame keeps its send-time seq, the other is injected "
        "at the window start.  One process orders the two sends by their "
        "global interleaving, which no per-shard rule reproduces."
    ))
    def test_same_nanosecond_sends_local_and_remote_diverge(self):
        spec = WorkloadSpec(
            nnodes=12, requests_per_node=4, pattern="hotspot", incast_fanin=4,
            arrival="open", mean_gap_ns=3_000, think_ns=5_000, rdv_fraction=0.5,
            collective_every=2, seed=100,
        )
        ref = run_one(spec, 1, trace=False)
        assert run_one(spec, 3, trace=False).fingerprint() == ref.fingerprint()

    def test_bit_identical_with_faults(self):
        spec = small_spec(seed=9)
        plan = FaultPlan(seed=5, net=NetFaults(drop_p=0.05, reorder_p=0.05))
        runs = {k: run_one(spec, k, faults=plan) for k in (1, 2, 4)}
        ref = runs[1]
        drops = [v for p, v in ref.snapshot.items()
                 if p.startswith("faults.") and p.endswith(".drops")]
        assert sum(drops) > 0, "fault plan never fired — test is vacuous"
        for k in (2, 4):
            assert runs[k].fingerprint() == ref.fingerprint()
        verify_completion(ref.snapshot, spec)

    def test_default_cluster_shards_with_jitter_and_net_faults(self):
        """A plain ``Cluster`` — jittered driver, net faults, no RNG-mode
        option — runs as 2 serial shards bit-identically to 1 shard."""
        plan = FaultPlan(seed=5, net=NetFaults(drop_p=0.1, reorder_p=0.2))
        kwargs = {"nnodes": 4, "msgs": 6, "seed": 12, "faults": plan}
        ref = run_sharded(PLAIN_BUILDER, kwargs, nshards=1, serial=True)
        two = run_sharded(PLAIN_BUILDER, kwargs, nshards=2, serial=True)
        received = sum(v for p, v in ref.snapshot.items() if p.startswith("ring."))
        assert received == 4 * 6, "ring exchange incomplete"
        drops = sum(v for p, v in ref.snapshot.items()
                    if p.startswith("faults.") and p.endswith(".drops"))
        assert drops > 0, "fault plan never fired — test is vacuous"
        assert two.snapshot == ref.snapshot
        assert two.fingerprint() == ref.fingerprint()

    def test_repeat_runs_in_one_process_are_stable(self):
        # Regression: the scan-pass dedup keyed on id(task); after enough
        # allocator churn (e.g. a prior run's cluster still alive) a
        # recycled address could falsely match and flip a pass outcome.
        spec = small_spec(pattern="hotspot", seed=11)
        first = run_one(spec, 1)
        keep_alive = [run_one(spec, 1), run_one(spec, 1)]
        again = run_one(spec, 1)
        assert again.fingerprint() == first.fingerprint()
        assert all(r.fingerprint() == first.fingerprint() for r in keep_alive)

    @needs_fork
    def test_forked_matches_serial(self):
        spec = small_spec(seed=4)
        serial = run_one(spec, 2, serial=True)
        forked = run_one(spec, 2, serial=False)
        assert forked.fingerprint() == serial.fingerprint()
        assert forked.snapshot == serial.snapshot
        # host telemetry differs run to run; the fingerprint never reads it
        assert serial.coordinator_wait_s == 0.0
        assert forked.coordinator_wait_s > 0.0
        assert len(forked.shard_compute_s) == 2
        assert all(c > 0.0 for c in forked.shard_compute_s)

    def test_fingerprint_ignores_host_diagnostics(self):
        result = run_one(small_spec(), 2)
        before = result.fingerprint()
        result.maxrss_kb = [123, 456]
        result.shard_compute_s = [9.0, 9.0]
        result.coordinator_wait_s = 9.0
        result.wall_ms = 1.0
        assert result.fingerprint() == before

    def test_incast_layout_balances_the_events(self):
        spec = incast_spec(nnodes=16, requests_per_node=4)
        result = run_one(spec, 2, trace=False)
        low, high = sorted(result.shard_fired)
        assert high / low < 1.05
        assert result.fingerprint() == run_one(spec, 1, trace=False).fingerprint()

    def test_partition_is_disjoint(self):
        # union_snapshots raises on overlap; also check node coverage
        spec = small_spec()
        result = run_one(spec, 3)
        flat = [n for nodes in result.shard_nodes for n in nodes]
        assert sorted(flat) == list(range(spec.nnodes))
        assert sum(result.shard_fired) == result.fired


class TestProtocol:
    def test_until_caps_the_run(self):
        spec = small_spec()
        capped = run_one_until(spec, until=50_000)
        assert capped.virtual_ns <= 50_000

    def test_lookahead_is_positive_and_capped(self, monkeypatch):
        """The window is capped at the fabric's minimum lookahead: a
        fabric granting half of it means more barriers, same simulation."""
        spec = small_spec()
        full = run_one(spec, 2)
        assert full.lookahead_ns > 0
        half = full.lookahead_ns // 2
        monkeypatch.setattr(Fabric, "min_lookahead_ns", lambda self: half)
        shrunk = run_one(spec, 2)
        assert shrunk.lookahead_ns == half
        assert shrunk.windows >= full.windows
        assert shrunk.fingerprint() == full.fingerprint()

    def test_non_finite_until_is_refused(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not a finite time"):
                run_sharded(BUILDER, {"spec": small_spec()}, nshards=1, until=bad)

    def test_nshards_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sharded(BUILDER, {"spec": small_spec()}, nshards=0)

    @needs_fork
    def test_two_shards_fork_exactly_one_process(self):
        kwargs = {"nnodes": 4, "msgs": 2, "seed": 3, "faults": None}
        result = run_sharded("tests.cluster.test_shard:build_pid_ring", kwargs,
                             nshards=2)
        pids = {result.snapshot[f"pid.shard{k}.pid"] for k in range(2)}
        assert result.snapshot["pid.shard0.pid"] == os.getpid()
        assert len(pids - {os.getpid()}) == 1
        # the hosted shard's memory is the caller's peak: reported as 0
        assert result.maxrss_kb[0] == 0 and result.maxrss_kb[1] > 0

    @pytest.mark.parametrize("coordinator", [os.getpid, os.getppid],
                             ids=["this-process", "another-process"])
    def test_only_the_coordinator_collects_the_world(self, monkeypatch, coordinator):
        """``finalize`` drops and collects the world only in the process
        that goes on after the run; a forked shard exits after its report,
        so its runner keeps the world and skips the collection."""
        collections = []
        monkeypatch.setattr(shard_mod.gc, "collect", lambda *a: collections.append(a))
        cluster = build_plain_ring(nnodes=2, msgs=1, seed=3, faults=None)
        runner = shard_mod.ShardRunner(cluster, coordinator())
        report = runner.finalize()
        assert report["maxrss_kb"] > 0 and report["fired"] == 0
        if coordinator is os.getpid:
            assert collections == [()] and runner.cluster is None
        else:
            assert collections == [] and runner.cluster is cluster

    def test_the_report_ships_sorted_columns(self):
        """A shard's metrics travel as two aligned lists, the paths in
        sorted order: the registry's snapshot, split into columns."""
        cluster = build_plain_ring(nnodes=2, msgs=1, seed=3, faults=None)
        cluster.run()
        snapshot = cluster.registry.snapshot()
        report = shard_mod.ShardRunner(cluster, os.getppid()).finalize()
        assert "snapshot" not in report
        paths, values = report["columns"]
        assert type(paths) is list and type(values) is list
        assert paths == sorted(snapshot) and len(paths) > 100
        assert values == list(snapshot.values())

    @pytest.mark.parametrize(
        "serial,fail_node",
        [(True, 1), pytest.param(False, 0, marks=needs_fork),
         pytest.param(False, 1, marks=needs_fork)],
        ids=["serial", "forked-hosted", "forked-child"],
    )
    def test_window_failure_names_shard_window_and_horizon(self, serial, fail_node):
        builder = "tests.cluster.test_shard:build_failing_ring"
        kwargs = {"nnodes": 4, "msgs": 3, "seed": 3, "faults": None,
                  "fail_node": fail_node, "fail_at_ns": 30_000}
        with pytest.raises(ShardPoolError) as info:
            run_sharded(builder, kwargs, nshards=2, serial=serial)
        err = info.value
        message = str(err)
        assert err.shard == f"shard{fail_node}"  # round-robin: node k on shard k
        assert message.startswith(f"shard{fail_node} failed in window ")
        window = int(message.split("failed in window ")[1].split()[0])
        horizon = int(message.split("(horizon ")[1].split()[0])
        # the last mention: a forked traceback quotes the raising line first
        failed_at = int(message.rsplit("planted failure at ", 1)[1].split()[0])
        assert 30_000 <= failed_at <= horizon
        repro_line = next(
            line for line in message.splitlines() if line.startswith("reproduce: ")
        )
        assert repro_line.endswith(f"nshards=2, serial=True, until={horizon})")
        cause = err.__cause__
        if serial or fail_node == 0:  # raised in this process: the original
            assert isinstance(cause, RuntimeError)
            assert not isinstance(cause, ShardPoolError)
        else:  # a forked shard's in-band report carries its traceback
            assert isinstance(cause, ShardPoolError)
        # the printed one-liner replays the same failure in the same window
        with pytest.raises(ShardPoolError, match=f"failed in window {window} "):
            eval(repro_line[len("reproduce: "):], {"run_sharded": run_sharded})


def reproducer(message: str) -> str:
    """The message's last line, which must be a serial reproducer."""
    last = message.splitlines()[-1]
    assert last.startswith("reproduce: run_sharded(")
    assert last.endswith(", nshards=2, serial=True)")
    return last[len("reproduce: "):]


class TestSetUpFailure:
    def test_hosted_shard_names_itself_and_prints_a_reproducer(self):
        kwargs = {"spec": WorkloadSpec(nnodes=4, seed=1), "machine": "nope"}
        with pytest.raises(ShardPoolError) as info:
            run_sharded(BUILDER, kwargs, nshards=2)
        err = info.value
        assert err.shard == "shard0"
        assert str(err).startswith("shard 'shard0' failed to build: ValueError: ")
        assert "unknown machine 'nope'" in str(err)
        assert isinstance(err.__cause__, ValueError)  # raised in this process
        call = reproducer(str(err))
        assert call.startswith(f"run_sharded({BUILDER!r}, {kwargs!r}")
        namespace = {"run_sharded": run_sharded, "WorkloadSpec": WorkloadSpec}
        with pytest.raises(ShardPoolError, match="'shard0' failed to build"):
            eval(call, namespace)

    @needs_fork
    def test_forked_shard_names_itself_and_prints_a_reproducer(self):
        builder = "tests.cluster.test_shard:build_failing_on_one"
        kwargs = {"nnodes": 4, "msgs": 2, "seed": 3, "faults": None}
        with pytest.raises(ShardPoolError) as info:
            run_sharded(builder, kwargs, nshards=2)
        err = info.value
        assert err.shard == "shard1"
        assert str(err).startswith(
            "shard 'shard1' failed to build: RuntimeError: planted build failure\n"
        )
        # the serial reproducer builds shard 1 in this process: same failure
        with pytest.raises(ShardPoolError, match="'shard1' failed to build") as again:
            eval(reproducer(str(err)), {"run_sharded": run_sharded})
        assert isinstance(again.value.__cause__, RuntimeError)


def run_one_until(spec, *, until):
    kwargs = {"spec": spec, "machine": "smp1x2", "trace": False}
    return run_sharded(BUILDER, kwargs, nshards=2, serial=True, until=until)
