"""Multi-threaded latency benchmark — paper Fig. 4.

OSU-style multi-threaded latency test (§V-B): one sending process
ping-pongs 4-byte messages with N receiver threads on the peer node.
Each receiver thread loops ``MPI_Recv`` + 4-byte reply; the sender
round-robins over the threads and the mean one-way latency is reported
per thread count.

Expected shape: the MVAPICH-like baseline's latency climbs with the
number of receiving threads (they all spin-poll under the global library
lock, and past the core count they queue behind each other's scheduling
quanta), while Mad-MPI/PIOMan stays nearly constant even past the core
count because receivers block on a condition and idle cores run the
polling tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Type

from repro.cluster.cluster import Cluster
from repro.net.driver import DriverSpec, IB_CONNECTX
from repro.topology.builder import borderline
from repro.topology.machine import Machine


@dataclass
class LatencyPoint:
    threads: int
    mean_one_way_ns: float
    min_ns: float
    max_ns: float
    p50_ns: float = 0.0
    p99_ns: float = 0.0


@dataclass
class LatencySeries:
    impl: str
    points: list[LatencyPoint] = field(default_factory=list)

    def latency_at(self, threads: int) -> float:
        for p in self.points:
            if p.threads == threads:
                return p.mean_one_way_ns
        raise KeyError(threads)


def run_latency_once(
    impl_cls: Type,
    nthreads: int,
    *,
    machine_factory: Callable[[], Machine] = borderline,
    driver: DriverSpec = IB_CONNECTX,
    iters_per_thread: int = 4,
    warmup: int = 2,
    seed: int = 0,
    size_bytes: int = 4,
) -> LatencyPoint:
    """One (implementation, thread-count) cell of Fig. 4."""
    cluster = Cluster(2, machine_factory=machine_factory, drivers=(driver,), seed=seed)
    mpi = impl_cls(cluster)
    c_send = mpi.comm(0)
    c_recv = mpi.comm(1)
    ncores = cluster.nodes[1].machine.ncores
    total_iters = warmup + iters_per_thread
    samples: list[float] = []

    def receiver_body(tid: int):
        def body(ctx):
            for _ in range(total_iters):
                yield from c_recv.recv(ctx.core_id, 0, tid)
                yield from c_recv.send(ctx.core_id, 0, tid, size_bytes, payload=b"r")

        return body

    def sender_body(ctx):
        for it in range(total_iters):
            for tid in range(nthreads):
                t0 = ctx.now
                yield from c_send.send(ctx.core_id, 1, tid, size_bytes, payload=b"p")
                yield from c_send.recv(ctx.core_id, 1, tid)
                if it >= warmup:
                    samples.append((ctx.now - t0) / 2.0)

    for tid in range(nthreads):
        core = tid % ncores
        cluster.nodes[1].scheduler.spawn(
            receiver_body(tid), core, name=f"recv{tid}"
        )
    cluster.nodes[0].scheduler.spawn(sender_body, 0, name="sender")
    # Bound: generous per-iteration budget; hitting it means a stall.
    cluster.run(until=total_iters * nthreads * 3_000_000 + 50_000_000)
    if not samples:
        raise RuntimeError(
            f"latency bench stalled: impl={impl_cls.__name__} threads={nthreads}"
        )
    return summarize(nthreads, samples)


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ascending ``ordered`` samples, computed
    as numpy's default (``linear``) method does, to the bit: position
    ``(n - 1) * (q / 100)``, then interpolation from whichever neighbour
    is nearer (``b - (b - a) * (1 - g)`` once ``g >= 0.5``)."""
    pos = (len(ordered) - 1) * (q / 100)
    lo = int(pos)
    if lo >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[lo], ordered[lo + 1]
    g = pos - lo
    if g >= 0.5:
        return b - (b - a) * (1 - g)
    return a + (b - a) * g


def summarize(threads: int, samples: Sequence[float]) -> LatencyPoint:
    """One Fig. 4 point from one-way latency samples: mean, min, max,
    p50 and p99.  Samples are half-integer ns, so the sum is exact in
    any order."""
    ordered = sorted(samples)
    return LatencyPoint(
        threads=threads,
        mean_one_way_ns=sum(samples) / len(samples),
        min_ns=ordered[0],
        max_ns=ordered[-1],
        p50_ns=percentile(ordered, 50),
        p99_ns=percentile(ordered, 99),
    )


def run_fig4(
    impls: Optional[Sequence[Type]] = None,
    thread_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
    *,
    machine_factory: Callable[[], Machine] = borderline,
    iters_per_thread: int = 4,
    seed: int = 0,
    include_unstable: bool = False,
) -> list[LatencySeries]:
    """The full Fig. 4 sweep.

    Implementations whose ``mt_stable`` is False are skipped unless
    ``include_unstable`` — the paper had to drop OpenMPI from this test
    ("segmentation faults occured").
    """
    if impls is None:
        from repro.mpi import IMPLEMENTATIONS

        impls = list(IMPLEMENTATIONS.values())
    series: list[LatencySeries] = []
    for impl_cls in impls:
        if not getattr(impl_cls, "mt_stable", True) and not include_unstable:
            continue
        s = LatencySeries(impl=impl_cls.name)
        for n in thread_counts:
            s.points.append(
                run_latency_once(
                    impl_cls,
                    n,
                    machine_factory=machine_factory,
                    iters_per_thread=iters_per_thread,
                    seed=seed + n,
                )
            )
        series.append(s)
    return series
