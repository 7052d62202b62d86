"""Multi-node cluster harness.

* :class:`Cluster` / :class:`Node` — N simulated nodes on one virtual
  clock and fabric (optionally built as one shard of a larger world);
* :mod:`repro.cluster.shard` — conservative-lookahead sharding: the
  cluster partitioned over K shards on K processes (the caller hosts
  shard 0), bit-identical to the single-process run;
* :mod:`repro.cluster.workload` — the seeded cluster-scale workload
  generator (open/closed-loop arrivals, bursty/diurnal modulation,
  incast fan-in, collective phases).

The names load on first access.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy(__name__, {
    "repro.cluster.cluster": ("Cluster", "Node", "ShardSpec"),
    "repro.cluster.shard": ("ShardRunResult", "run_sharded"),
    "repro.cluster.workload": ("WorkloadSpec", "build_workload_cluster"),
})

__all__ = [
    "Cluster",
    "Node",
    "ShardRunResult",
    "ShardSpec",
    "WorkloadSpec",
    "build_workload_cluster",
    "run_sharded",
]
