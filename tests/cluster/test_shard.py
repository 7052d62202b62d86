"""Sharded-cluster identity: the partitioning must be invisible.

The load-bearing contract of :mod:`repro.cluster.shard` is that the
merged metric snapshot and the multiset of trace records are
**bit-identical** to the single-process run at any shard count, faults
on or off, forked or serial — and stable across repeated runs in one
process (a regression guard for heap-layout-dependent behaviour: the
scan-pass dedup used to key on ``id(task)``, so a recycled address could
flip a pass outcome depending on allocator history).
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.shard import ShardSpec, run_sharded, shard_of
from repro.cluster.workload import WorkloadSpec, verify_completion
from repro.faults import FaultPlan, NetFaults
from repro.mpi import MadMPI
from repro.obs.registry import MetricsRegistry
from repro.par.pool import has_fork
from repro.topology.builder import smp

BUILDER = "repro.cluster.workload:build_workload_cluster"
PLAIN_BUILDER = "tests.cluster.test_shard:build_plain_ring"


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


def run_one(spec, nshards, *, serial=True, faults=None, trace=True):
    kwargs = {"spec": spec, "machine": "smp1x2", "trace": trace,
              "faults": faults}
    return run_sharded(BUILDER, kwargs, nshards=nshards, serial=serial)


class TestShardSpec:
    def test_round_robin_ownership(self):
        spec = ShardSpec(1, 3)
        owned = [i for i in range(12) if spec.owns(i)]
        assert owned == [1, 4, 7, 10]
        assert all(shard_of(i, 3) == i % 3 for i in range(12))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            ShardSpec(3, 3)
        with pytest.raises(ValueError):
            ShardSpec(-1, 2)
        with pytest.raises(ValueError):
            ShardSpec(0, 0)


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

    @pytest.mark.skipif(not has_fork(), reason="platform cannot fork")
    def test_forked_matches_serial(self):
        spec = small_spec(seed=4)
        serial = run_one(spec, 2, serial=True)
        forked = run_one(spec, 2, serial=False)
        assert forked.fingerprint() == serial.fingerprint()
        assert forked.snapshot == serial.snapshot

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

    def test_lookahead_is_positive_and_capped(self):
        spec = small_spec()
        full = run_one(spec, 2)
        assert full.lookahead_ns > 0
        kwargs = {"spec": spec, "machine": "smp1x2", "trace": False}
        shrunk = run_sharded(
            BUILDER, kwargs, nshards=2, serial=True,
            lookahead_ns=full.lookahead_ns // 2,
        )
        assert shrunk.lookahead_ns == full.lookahead_ns // 2
        # a smaller window means more barriers, same simulation
        assert shrunk.windows >= full.windows
        assert shrunk.fired == full.fired
        # the override may only shrink: asking for more gets the fabric cap
        capped = run_sharded(
            BUILDER, kwargs, nshards=2, serial=True,
            lookahead_ns=full.lookahead_ns * 1000,
        )
        assert capped.lookahead_ns == full.lookahead_ns

    def test_nshards_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sharded(BUILDER, {"spec": small_spec()}, nshards=0)


def run_one_until(spec, *, until):
    kwargs = {"spec": spec, "machine": "smp1x2", "trace": False}
    return run_sharded(BUILDER, kwargs, nshards=2, serial=True, until=until)
