"""Disjoint-union merging of per-shard metrics snapshots.

A node-sharded cluster simulation (:mod:`repro.cluster.shard`) comes
back as one :meth:`~repro.obs.MetricsRegistry.columns` pair per shard:
sorted paths and the values aligned with them.  :func:`union_snapshots`
folds them into the single-process snapshot, in any shard order.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush
from typing import Sequence, Union

Number = Union[int, float]


def union_snapshots(
    columns: Sequence[tuple[Sequence[str], Sequence[Number]]]
) -> dict[str, Number]:
    """Disjoint-union merge for node-partitioned shards of one world.

    Each shard gives ``(paths, values)``: its paths, sorted and unique,
    and the values aligned with them, as :meth:`MetricsRegistry.columns
    <repro.obs.registry.MetricsRegistry.columns>` returns them.  The
    cluster sharder scopes every registry path to a node
    (``sched.node3``, ``nmad.node3.gate1`` ...), so the shards partition
    the path space and their union *is* the single-process snapshot.  A
    path held by two shards means the partitioning leaked: that is a
    :class:`ValueError` naming the second shard (in the order given),
    never a silent sum.  The union's keys are sorted, so any shard order
    yields the same dict.

    The sorted columns merge straight into the union, one run at a time:
    a heap holds each shard's next path, and the shard whose path comes
    first contributes every path below the next shard's head at once.
    No dict or ``(path, value)`` pair is built per shard, so a merge
    holds little beyond its inputs and its result.
    """
    shards = list(columns)
    merged: dict[str, Number] = {}
    heads = [(paths[0], k, 0) for k, (paths, _) in enumerate(shards) if paths]
    heapify(heads)
    while heads:
        path, k, start = heappop(heads)
        paths, values = shards[k]
        if not heads:
            end = len(paths)
        elif heads[0][0] == path:
            raise ValueError(
                f"counter path {path!r} appears in more than one shard "
                f"(second occurrence in shard {heads[0][1]})"
            )
        else:
            end = bisect_left(paths, heads[0][0], start)
        merged.update(zip(paths[start:end], values[start:end]))
        if end < len(paths):
            heappush(heads, (paths[end], k, end))
    return merged
