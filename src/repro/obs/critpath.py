"""Critical-path extraction over causal trace edges.

The instrumented subsystems (queues, manager, scheduler doorbells, locks,
NIC, fault injector, nmad) emit causal edges ``cause -> effect`` via
:meth:`repro.sim.trace.Tracer.edge`, each spanning the virtual-time
interval ``[start, end]``.  This module walks those edges *backward* from
the last task completion to recover the chain of events that determined
the run's makespan, then attributes every nanosecond of that chain to a
subsystem bucket:

* ``compute``       — task functions executing (and submission work);
* ``queue_wait``    — submitted work sitting in a task queue;
* ``lock_wait``     — waiting on a contended queue lock (overlay, below);
* ``nic``           — TX serialization + wire latency;
* ``retransmit``    — loss-detection timeouts (fault worlds);
* ``wakeup``        — doorbell propagation, idle-loop wake and re-poll
  gaps of repeat tasks;
* ``untraced``      — trace start up to the first explained event (work
  before the first causal edge, e.g. thread spawn-up).

At a node with several incoming edges the walker picks the one whose
cause is *latest* — the classic critical-dependency rule: the last thing
you were waiting for is the thing that made you late.  By construction
the attributed nanoseconds sum exactly to the makespan (trace start to
terminal completion).

Lock waits are not on the task chain itself (a queue lock delays the
*poller*, which the task sees as queue wait), so they are applied as an
**overlay**: lock-wait intervals overlapping a ``queue_wait``/``wakeup``/
``untraced`` segment reallocate that overlap to ``lock_wait`` — a
deliberate heuristic that keeps the sum invariant while naming the lock
storms the paper measures on the global queue.

``python -m repro.bench analyze --trace t.json --critical-path`` renders
the path; :mod:`repro.obs.gantt` overlays it on the Gantt chart.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.obs.analyze import _Edge, _ingest, queue_level

#: edge kind -> attribution bucket
_CATEGORY = {
    "submit": "compute",
    "compute": "compute",
    "queue_wait": "queue_wait",
    "poll": "wakeup",
    "dispatch": "wakeup",
    "wakeup": "wakeup",
    "post": "nic",
    "nic": "nic",
    "retransmit": "retransmit",
    "lock_wait": "lock_wait",
}

#: every attribution bucket, display order
CATEGORIES = (
    "compute",
    "queue_wait",
    "lock_wait",
    "nic",
    "retransmit",
    "wakeup",
    "untraced",
)


@dataclass
class PathSegment:
    """One hop of the critical path: ``[start, end]`` explained by one edge."""

    kind: str
    category: str
    start: int
    end: int
    cause: str
    effect: str
    queue: str = ""
    #: ns of this segment reallocated to lock_wait by the overlay
    lock_overlap_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The extracted path plus its subsystem/level attribution."""

    t_start: int = 0
    terminal_time: int = 0
    terminal: str = ""
    segments: list[PathSegment] = field(default_factory=list)
    #: attributed ns per bucket; sums exactly to ``makespan_ns``
    totals: dict[str, int] = field(default_factory=dict)
    #: queue-wait ns per topology level (subset of totals["queue_wait"])
    level_ns: dict[str, int] = field(default_factory=dict)
    edge_count: int = 0

    @property
    def makespan_ns(self) -> int:
        return self.terminal_time - self.t_start

    def shares(self) -> dict[str, float]:
        """Bucket shares of the makespan (empty path -> empty dict)."""
        span = self.makespan_ns
        if span <= 0:
            return {}
        return {k: v / span for k, v in self.totals.items()}

    def to_jsonable(self) -> dict[str, Any]:
        out = dataclasses.asdict(self)
        out["makespan_ns"] = self.makespan_ns
        out["shares"] = self.shares()
        return out


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------
def extract_critical_path(source: Union["Tracer", dict]) -> CriticalPath:  # noqa: F821
    """Walk causal edges backward from the last completion.

    Accepts a live ``Tracer`` or a loaded Chrome-trace document.  A trace
    with no causal edges yields a single ``untraced`` segment spanning the
    whole trace (or an empty path for an empty trace)."""
    trace = _ingest(source)
    edges, locks, t_start, t_end = trace.edges, trace.locks, trace.t_start, trace.t_end
    cp = CriticalPath(t_start=t_start, edge_count=len(edges))
    cp.totals = {c: 0 for c in CATEGORIES}

    if not edges:
        cp.terminal_time = t_end
        cp.terminal = ""
        if t_end > t_start:
            cp.segments = [
                PathSegment("untraced", "untraced", t_start, t_end, "", "")
            ]
            cp.totals["untraced"] = t_end - t_start
        return cp

    # terminal: the last task completion; fall back to the last edge at all
    done = [e for e in edges if e.effect.endswith("/done")]
    pool = done or edges
    terminal_edge = max(pool, key=lambda e: (e.end, e.effect))
    cp.terminal = terminal_edge.effect
    cp.terminal_time = terminal_edge.end

    incoming: dict[str, list[_Edge]] = {}
    for e in edges:
        incoming.setdefault(e.effect, []).append(e)

    # -- backward walk --------------------------------------------------
    node = cp.terminal
    cursor = cp.terminal_time
    raw: list[PathSegment] = []
    visited: set[tuple[str, int]] = set()
    for _ in range(len(edges) + 2):
        cands = incoming.get(node)
        if not cands:
            break
        # latest cause wins; kind/cause break timestamp ties deterministically
        e = max(cands, key=lambda e: (e.start, e.kind, e.cause))
        start = min(e.start, cursor)
        raw.append(
            PathSegment(
                kind=e.kind,
                category=_CATEGORY.get(e.kind, "compute"),
                start=start,
                end=cursor,
                cause=e.cause,
                effect=node,
                queue=e.queue,
            )
        )
        key = (e.cause, start)
        if key in visited:
            break  # cycle guard (malformed trace)
        visited.add(key)
        node, cursor = e.cause, start
    raw.reverse()

    # everything before the first explained event is untraced makespan
    if cursor > t_start:
        raw.insert(
            0, PathSegment("untraced", "untraced", t_start, cursor, "", node)
        )
    cp.segments = raw

    # -- attribution ----------------------------------------------------
    for seg in cp.segments:
        cp.totals[seg.category] += seg.duration_ns

    # lock overlay: reallocate lock-wait overlap out of wait-ish buckets
    intervals = _merge_intervals([(lk.start, lk.end) for lk in locks])
    if intervals:
        for seg in cp.segments:
            if seg.category not in ("queue_wait", "wakeup", "untraced"):
                continue
            ov = _overlap_ns(seg.start, seg.end, intervals)
            if ov > 0:
                seg.lock_overlap_ns = ov
                cp.totals[seg.category] -= ov
                cp.totals["lock_wait"] += ov

    # queue-level attribution of the (post-overlay) queue waits
    for seg in cp.segments:
        if seg.category == "queue_wait" and seg.queue:
            ns = seg.duration_ns - seg.lock_overlap_ns
            if ns > 0:
                lvl = queue_level(seg.queue)
                cp.level_ns[lvl] = cp.level_ns.get(lvl, 0) + ns
    return cp


def _merge_intervals(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Union of possibly-overlapping [start, end] intervals, sorted."""
    out: list[tuple[int, int]] = []
    for s, e in sorted(spans):
        if e <= s:
            continue
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1] = (out[-1][0], e)
        else:
            out.append((s, e))
    return out


def _overlap_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Total ns of [start, end] covered by the (merged) intervals."""
    total = 0
    for s, e in intervals:
        if s >= end:
            break
        lo, hi = max(s, start), min(e, end)
        if hi > lo:
            total += hi - lo
    return total


def extract_critical_path_file(path: str) -> CriticalPath:
    """Load a ``--trace-out`` JSON file and extract its critical path."""
    with open(path) as fh:
        return extract_critical_path(json.load(fh))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def format_critical_path(cp: CriticalPath, max_segments: int = 40) -> str:
    """Text report: attribution summary, then the path hop by hop."""
    lines = [
        f"== critical path: {len(cp.segments)} segments over "
        f"{cp.makespan_ns} ns makespan "
        f"({cp.edge_count} causal edges"
        + (f", terminal {cp.terminal}" if cp.terminal else "")
        + ") =="
    ]
    span = cp.makespan_ns
    if span <= 0:
        lines.append("  (no traced makespan)")
        return "\n".join(lines)
    parts = []
    for cat in CATEGORIES:
        ns = cp.totals.get(cat, 0)
        if ns:
            parts.append(f"{cat} {100 * ns / span:.1f}% ({ns} ns)")
    lines.append("   attribution: " + (", ".join(parts) or "none"))
    if cp.level_ns:
        lv = ", ".join(
            f"{level} {100 * ns / span:.1f}% ({ns} ns)"
            for level, ns in sorted(cp.level_ns.items())
        )
        lines.append(f"   queue wait by level: {lv}")
    segs = cp.segments
    shown = segs
    elided = 0
    if len(segs) > max_segments:
        head = max_segments // 2
        tail = max_segments - head
        shown = segs[:head] + segs[-tail:]
        elided = len(segs) - len(shown)
    for i, seg in enumerate(shown):
        if elided and i == max_segments // 2:
            lines.append(f"   ... ({elided} segments elided) ...")
        note = f" (q:{seg.queue})" if seg.queue else ""
        if seg.lock_overlap_ns:
            note += f" [lock overlay {seg.lock_overlap_ns} ns]"
        arrow = f"{seg.cause} -> {seg.effect}" if seg.cause else seg.effect
        lines.append(
            f"   t+{seg.start - cp.t_start:<10} {seg.category:<10} "
            f"{seg.duration_ns:>8} ns  {seg.kind:<10} {arrow}{note}"
        )
    return "\n".join(lines)
