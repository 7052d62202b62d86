"""Disjoint-union merging of per-shard metrics snapshots.

A node-sharded cluster simulation (:mod:`repro.cluster.shard`) comes
back as one flat :meth:`~repro.obs.MetricsRegistry.snapshot` per shard.
:func:`union_snapshots` folds them into the single-process snapshot, in
any shard order.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Sequence, Union

Number = Union[int, float]


def union_snapshots(
    snapshots: Sequence[Mapping[str, Number]]
) -> dict[str, Number]:
    """Disjoint-union merge for node-partitioned shards of one world.

    The cluster sharder scopes every registry path to a node
    (``sched.node3``, ``nmad.node3.gate1`` ...), so shard snapshots
    partition the path space; their union *is* the single-process
    snapshot.  A path appearing in two shards means the partitioning
    leaked — that is a :class:`ValueError`, never a silent sum.  Keys
    are sorted, so any shard order yields the same dict.

    The union is built straight from the sorted paths, each value read
    from the shard that holds it: no intermediate dict and no list of
    ``(path, value)`` pairs, so a merge holds little beyond its inputs
    and its result.
    """
    shards = list(snapshots)
    merged: dict[str, Number] = {}
    for path in sorted(chain.from_iterable(shards)):
        if path in merged:
            second = [i for i, snap in enumerate(shards) if path in snap][1]
            raise ValueError(
                f"counter path {path!r} appears in more than one shard "
                f"(second occurrence in shard {second})"
            )
        for snap in shards:
            if path in snap:
                merged[path] = snap[path]
                break
    return merged
