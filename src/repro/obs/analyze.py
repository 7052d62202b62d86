"""Offline trace analysis — turn a trace into the paper's numbers.

The Chrome-trace export (:mod:`repro.obs.chrometrace`) is write-only: you
need a browser to learn anything from it.  This module closes the loop —
it ingests either a live :class:`repro.sim.trace.Tracer` or a previously
written ``--trace-out`` JSON file and computes the distributions the
paper's scalability argument is made of (§IV-A, Tables I/II):

* **per-core busy/idle utilization** — task-execution time per core over
  the traced span (the execution-share tables, as time instead of counts);
* **submit→run latency percentiles per queue level** — how long a task
  submitted to a core/cache/chip/NUMA/global queue waited before any core
  picked it up, the quantity Table I/II's level analysis is about;
* **lock-contention intervals** — contended acquisitions per lock with
  wait-time percentiles (the level-3 global-queue storms);
* **top-N slowest tasks** — the tail, named, so a regression has a
  concrete task to look at.

``python -m repro.bench analyze --trace t.json`` renders the result as a
topology-grouped text report (cores first, then queue levels innermost to
outermost) and optionally as JSON (``--analysis-out``) for regression
gates.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.obs.chrometrace import chrome_trace

#: queue-level display names, innermost first — "node" is the paper's name
#: for the NUMA level, "global" for the machine-spanning root queue
LEVEL_ORDER = ("core", "cache", "chip", "node", "global")

_LEVEL_ALIASES = {
    "core": "core",
    "cache": "cache",
    "chip": "chip",
    "numa": "node",
    "node": "node",
    "machine": "global",
    "global": "global",
}


def queue_level(queue_name: str) -> str:
    """Map a queue name (``q:core#3``, ``q:machine``) to its level name."""
    name = queue_name
    if name.startswith("q:"):
        name = name[2:]
    token = name.split("#", 1)[0]
    return _LEVEL_ALIASES.get(token, token or "unknown")


def _percentile(sorted_vals: list[int], p: float) -> int:
    """Exact nearest-rank percentile of a pre-sorted sample list."""
    if not sorted_vals:
        return 0
    rank = max(1, -(-len(sorted_vals) * p // 100))  # ceil
    return sorted_vals[int(rank) - 1]


# ---------------------------------------------------------------------------
# normalized events
# ---------------------------------------------------------------------------
@dataclass
class _Run:
    task: str
    core: int
    queue: str
    start: int
    end: int
    complete: bool


@dataclass
class _Submit:
    task: str
    core: int
    queue: str
    time: int


@dataclass
class _LockWait:
    lock: str
    core: int
    wait_ns: int
    start: int
    end: int


@dataclass
class _FaultEvent:
    kind: str
    time: int


@dataclass
class _Edge:
    """One causal edge ``cause -> effect`` spanning ``[start, end]``.

    Emitted by the instrumented subsystems via :meth:`Tracer.edge`;
    consumed by :mod:`repro.obs.critpath` to extract the critical path.
    """

    kind: str
    cause: str
    effect: str
    start: int
    end: int
    queue: str = ""


# ---------------------------------------------------------------------------
# analysis result
# ---------------------------------------------------------------------------
@dataclass
class CoreReport:
    core: int
    busy_ns: int = 0
    runs: int = 0
    completions: int = 0
    #: busy fraction of the traced span; None (rendered "n/a") when the
    #: trace has no time span to divide by — 0.0 would claim a measured
    #: idle core where nothing was actually measured
    utilization: Optional[float] = None

    @property
    def idle_fraction(self) -> Optional[float]:
        return None if self.utilization is None else 1.0 - self.utilization


@dataclass
class LevelLatency:
    """Submit→first-run latency distribution for one queue level."""

    level: str
    count: int
    p50_ns: int
    p99_ns: int
    p999_ns: int
    max_ns: int
    mean_ns: float


@dataclass
class FaultImpact:
    """Tail impact of one injected fault type (repro.faults).

    Completions whose [submit, complete] window contains at least one
    fault event of this kind are "impacted"; the rest of the same trace
    are the in-situ control group.  ``tail_ratio`` is impacted p999 over
    clean p999 — how much the fault stretched the far tail — and is None
    when either side has no samples.
    """

    kind: str
    events: int
    impacted_tasks: int
    clean_tasks: int
    impacted_p99_ns: Optional[int]
    impacted_p999_ns: Optional[int]
    clean_p99_ns: Optional[int]
    clean_p999_ns: Optional[int]
    tail_ratio: Optional[float]


@dataclass
class LockReport:
    lock: str
    contended: int
    total_wait_ns: int
    p50_wait_ns: int
    max_wait_ns: int


@dataclass
class SlowTask:
    task: str
    latency_ns: int
    core: int
    queue: str


@dataclass
class TraceAnalysis:
    """Everything the offline analyzer derives from one trace."""

    t_start: int = 0
    t_end: int = 0
    submits: int = 0
    runs: int = 0
    completions: int = 0
    #: submits with no observed run slice (trace truncated / task pending)
    unmatched_submits: int = 0
    cores: list[CoreReport] = field(default_factory=list)
    levels: list[LevelLatency] = field(default_factory=list)
    locks: list[LockReport] = field(default_factory=list)
    slowest: list[SlowTask] = field(default_factory=list)
    #: overall submit→complete latency percentiles; None ("n/a") when the
    #: trace contains no completed tasks
    completion_p50_ns: Optional[int] = None
    completion_p99_ns: Optional[int] = None
    completion_p999_ns: Optional[int] = None
    #: injected-fault events seen on the trace, and per-kind tail impact
    fault_events: int = 0
    faults: list[FaultImpact] = field(default_factory=list)
    #: top-line header (makespan ns, total trace events, events per
    #: simulated second, scenario name when known) — the stable surface
    #: ``bench diff`` attributes against
    meta: dict = field(default_factory=dict)

    @property
    def span_ns(self) -> int:
        return self.t_end - self.t_start

    def level(self, name: str) -> Optional[LevelLatency]:
        for lv in self.levels:
            if lv.level == name:
                return lv
        return None

    def to_jsonable(self) -> dict[str, Any]:
        out = dataclasses.asdict(self)
        out["span_ns"] = self.span_ns
        for core in out["cores"]:
            util = core["utilization"]
            core["idle_fraction"] = None if util is None else 1.0 - util
        return out


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------
TraceSource = Union["Tracer", dict]  # noqa: F821 - Tracer duck-typed


@dataclass
class _Trace:
    """One trace parsed into normalized events, with its traced span
    (first to last timestamp of any event) and its ``otherData``."""

    runs: list[_Run]
    submits: list[_Submit]
    locks: list[_LockWait]
    faults: list[_FaultEvent]
    edges: list[_Edge]
    #: non-metadata trace events (one per tracer record)
    events: int
    t_start: int
    t_end: int
    other: dict


def _ingest(source: TraceSource) -> _Trace:
    """Parse a loaded Chrome-trace document, or a live ``Tracer`` after
    exporting it with :func:`~repro.obs.chrometrace.chrome_trace` — one
    parser, the one the ``analyze``/``render`` CLI runs on files."""
    doc = chrome_trace(source) if hasattr(source, "records") else source
    runs: list[_Run] = []
    submits: list[_Submit] = []
    locks: list[_LockWait] = []
    faults: list[_FaultEvent] = []
    edges: list[_Edge] = []
    events = 0
    for ev in doc.get("traceEvents", ()):
        ph = ev.get("ph")
        if ph == "M":
            continue
        events += 1
        args = ev.get("args") or {}
        if ph == "X":
            start = int(round(ev["ts"] * 1000))
            runs.append(
                _Run(
                    task=str(ev.get("name", "")),
                    core=int(args.get("core", -1)),
                    queue=str(args.get("queue", "")),
                    start=start,
                    end=start + int(round(ev.get("dur", 0) * 1000)),
                    complete=bool(args.get("complete")),
                )
            )
        elif ph == "i":
            t = int(round(ev.get("ts", 0) * 1000))
            if "edge" in args:
                edges.append(
                    _Edge(
                        kind=str(args.get("edge", "")),
                        cause=str(args.get("cause", "")),
                        effect=str(args.get("effect", "")),
                        start=min(int(args.get("start", t)), t),
                        end=t,
                        queue=str(args.get("queue", "")),
                    )
                )
            elif "fault" in args:
                faults.append(
                    _FaultEvent(kind=str(args.get("fault", "unknown")), time=t)
                )
            elif "wait_ns" in args and "lock" in args:
                start = int(args.get("start", t))
                locks.append(
                    _LockWait(
                        lock=str(args["lock"]),
                        core=int(args.get("core", -1)),
                        wait_ns=int(args["wait_ns"]),
                        start=min(start, t),
                        end=t,
                    )
                )
            elif str(ev.get("name", "")).startswith("submit ") or (
                "task" in args and "queue" in args
            ):
                task = args.get("task") or str(ev["name"])[len("submit "):]
                submits.append(
                    _Submit(
                        task=str(task),
                        core=int(args.get("core", -1)),
                        queue=str(args.get("queue", "")),
                        time=t,
                    )
                )
    times = (
        [r.start for r in runs]
        + [r.end for r in runs]
        + [s.time for s in submits]
        + [lk.start for lk in locks]
        + [lk.end for lk in locks]
        + [f.time for f in faults]
        + [e.start for e in edges]
        + [e.end for e in edges]
    )
    return _Trace(
        runs, submits, locks, faults, edges, events,
        min(times, default=0), max(times, default=0),
        doc.get("otherData") or {},
    )


# ---------------------------------------------------------------------------
# the analysis itself
# ---------------------------------------------------------------------------
def analyze_trace(
    source: TraceSource,
    *,
    ncores: Optional[int] = None,
    top_n: int = 10,
    scenario: Optional[str] = None,
) -> TraceAnalysis:
    """Analyze a live ``Tracer`` or a loaded Chrome-trace document.

    ``ncores`` forces the per-core report to cover cores that emitted no
    events (an idle core is a result, not a gap); when the source is a
    ``--trace-out`` file written by the bench CLI, the core count stamped
    into ``otherData`` is used automatically.  ``scenario`` names the run
    in the ``meta`` header (falls back to ``otherData.scenario``).
    """
    trace = _ingest(source)
    runs, submits, locks, faults = trace.runs, trace.submits, trace.locks, trace.faults
    total_events = trace.events
    if ncores is None:
        meta_n = trace.other.get("ncores")
        ncores = int(meta_n) if meta_n else None
    if scenario is None:
        scenario = trace.other.get("scenario") or None

    out = TraceAnalysis(submits=len(submits), runs=len(runs))
    out.fault_events = len(faults)
    out.t_start, out.t_end = trace.t_start, trace.t_end
    span = out.span_ns  # 0 on empty/degenerate traces: report n/a, not 0%
    out.meta = {
        "makespan_ns": span,
        "events": total_events,
        "events_per_sec": (
            round(total_events / (span / 1e9), 1) if span > 0 else None
        ),
        "scenario": scenario,
    }

    # -- per-core busy/idle utilization --------------------------------
    max_core = max(
        [r.core for r in runs] + [s.core for s in submits] + [lk.core for lk in locks],
        default=-1,
    )
    n = max(ncores or 0, max_core + 1)
    cores = [CoreReport(core=c) for c in range(n)]
    for r in runs:
        if 0 <= r.core < n:
            rep = cores[r.core]
            rep.busy_ns += r.end - r.start
            rep.runs += 1
            if r.complete:
                rep.completions += 1
    for rep in cores:
        rep.utilization = rep.busy_ns / span if span > 0 else None
    out.cores = cores
    out.completions = sum(c.completions for c in cores)

    # -- submit→run latency per queue level ----------------------------
    runs_by_task: dict[str, list[tuple[int, _Run]]] = {}
    for r in sorted(runs, key=lambda r: r.start):
        runs_by_task.setdefault(r.task, []).append((r.start, r))
    per_level: dict[str, list[int]] = {}
    slow: list[SlowTask] = []
    #: (submit_time, complete_time, latency) per completed task — feeds the
    #: overall completion percentiles and the fault-impact windows
    comp_windows: list[tuple[int, int, int]] = []
    for sub in submits:
        entries = runs_by_task.get(sub.task)
        if not entries:
            out.unmatched_submits += 1
            continue
        starts = [t for t, _ in entries]
        i = bisect.bisect_left(starts, sub.time)
        if i >= len(entries):
            out.unmatched_submits += 1
            continue
        first = entries[i][1]
        per_level.setdefault(queue_level(sub.queue), []).append(
            first.start - sub.time
        )
        # completion = the first completing run at/after the submit
        for _, r in entries[i:]:
            if r.complete:
                slow.append(
                    SlowTask(
                        task=sub.task,
                        latency_ns=r.end - sub.time,
                        core=r.core,
                        queue=sub.queue,
                    )
                )
                comp_windows.append((sub.time, r.end, r.end - sub.time))
                break
    rank = {lv: i for i, lv in enumerate(LEVEL_ORDER)}
    for level in sorted(per_level, key=lambda lv: rank.get(lv, len(rank))):
        vals = sorted(per_level[level])
        out.levels.append(
            LevelLatency(
                level=level,
                count=len(vals),
                p50_ns=_percentile(vals, 50),
                p99_ns=_percentile(vals, 99),
                p999_ns=_percentile(vals, 99.9),
                max_ns=vals[-1],
                mean_ns=sum(vals) / len(vals),
            )
        )
    slow.sort(key=lambda s: -s.latency_ns)
    out.slowest = slow[:top_n]

    # -- overall completion latency (n/a when nothing completed) --------
    if comp_windows:
        lats = sorted(lat for (_, _, lat) in comp_windows)
        out.completion_p50_ns = _percentile(lats, 50)
        out.completion_p99_ns = _percentile(lats, 99)
        out.completion_p999_ns = _percentile(lats, 99.9)

    # -- per-fault-kind tail impact -------------------------------------
    fault_times: dict[str, list[int]] = {}
    for f in faults:
        fault_times.setdefault(f.kind, []).append(f.time)
    for kind in sorted(fault_times):
        ts = sorted(fault_times[kind])
        impacted: list[int] = []
        clean: list[int] = []
        for t0, t1, lat in comp_windows:
            i = bisect.bisect_left(ts, t0)
            (impacted if i < len(ts) and ts[i] <= t1 else clean).append(lat)
        impacted.sort()
        clean.sort()
        imp999 = _percentile(impacted, 99.9) if impacted else None
        cln999 = _percentile(clean, 99.9) if clean else None
        ratio = (
            imp999 / cln999
            if imp999 is not None and cln999 is not None and cln999 > 0
            else None
        )
        out.faults.append(
            FaultImpact(
                kind=kind,
                events=len(ts),
                impacted_tasks=len(impacted),
                clean_tasks=len(clean),
                impacted_p99_ns=_percentile(impacted, 99) if impacted else None,
                impacted_p999_ns=imp999,
                clean_p99_ns=_percentile(clean, 99) if clean else None,
                clean_p999_ns=cln999,
                tail_ratio=ratio,
            )
        )

    # -- lock contention ------------------------------------------------
    by_lock: dict[str, list[int]] = {}
    for lk in locks:
        by_lock.setdefault(lk.lock, []).append(lk.wait_ns)
    for lock in sorted(by_lock):
        waits = sorted(by_lock[lock])
        out.locks.append(
            LockReport(
                lock=lock,
                contended=len(waits),
                total_wait_ns=sum(waits),
                p50_wait_ns=_percentile(waits, 50),
                max_wait_ns=waits[-1],
            )
        )
    return out


def analyze_trace_file(
    path: str,
    *,
    ncores: Optional[int] = None,
    top_n: int = 10,
    scenario: Optional[str] = None,
) -> TraceAnalysis:
    """Load a ``--trace-out`` JSON file and analyze it."""
    with open(path) as fh:
        doc = json.load(fh)
    return analyze_trace(doc, ncores=ncores, top_n=top_n, scenario=scenario)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def _pct(v: Optional[float]) -> str:
    return "   n/a" if v is None else f"{100 * v:6.2f}%"


def _ns(v: Optional[int]) -> str:
    return "n/a" if v is None else str(v)


def format_analysis(a: TraceAnalysis) -> str:
    """Topology-grouped text report (cores, then levels inner→outer)."""
    lines = [
        f"== trace analysis: span {a.span_ns} ns, {a.submits} submits, "
        f"{a.runs} runs, {a.completions} completions =="
    ]
    if a.meta:
        eps = a.meta.get("events_per_sec")
        scen = a.meta.get("scenario")
        lines.append(
            f"   meta: makespan={a.meta.get('makespan_ns', a.span_ns)} ns  "
            f"events={a.meta.get('events', 0)}  "
            f"events/sim-sec={'n/a' if eps is None else f'{eps:g}'}"
            + (f"  scenario={scen}" if scen else "")
        )
    if a.unmatched_submits:
        lines.append(f"   ({a.unmatched_submits} submits had no run slice)")
    lines.append(
        f"   submit→complete p50={_ns(a.completion_p50_ns)} "
        f"p99={_ns(a.completion_p99_ns)} p999={_ns(a.completion_p999_ns)} ns"
    )
    lines.append("== per-core utilization ==")
    for c in a.cores:
        lines.append(
            f"  core{c.core:<3} busy {_pct(c.utilization)}  "
            f"idle {_pct(c.idle_fraction)}  "
            f"({c.runs} runs, {c.completions} completions, {c.busy_ns} ns)"
        )
    if not a.cores:
        lines.append("  (no core activity traced)")
    lines.append("== submit→run latency by queue level ==")
    for lv in a.levels:
        lines.append(
            f"  {lv.level:<6} n={lv.count:<5} p50={lv.p50_ns:<8} "
            f"p99={lv.p99_ns:<8} p999={lv.p999_ns:<8} max={lv.max_ns:<8} "
            f"mean={lv.mean_ns:.1f} ns"
        )
    if not a.levels:
        lines.append("  (no submit/run pairs traced)")
    if a.fault_events or a.faults:
        lines.append("== injected-fault tail impact ==")
        for fi in a.faults:
            ratio = "n/a" if fi.tail_ratio is None else f"{fi.tail_ratio:.2f}x"
            lines.append(
                f"  {fi.kind:<12} events={fi.events:<5} "
                f"impacted={fi.impacted_tasks:<5} clean={fi.clean_tasks:<5} "
                f"p999 {_ns(fi.impacted_p999_ns)} vs {_ns(fi.clean_p999_ns)} ns "
                f"(tail {ratio}; p99 {_ns(fi.impacted_p99_ns)} vs "
                f"{_ns(fi.clean_p99_ns)})"
            )
        if not a.faults:
            lines.append(
                f"  ({a.fault_events} fault events, no completed tasks to "
                f"attribute them to)"
            )
    lines.append("== lock contention ==")
    for lk in a.locks:
        lines.append(
            f"  {lk.lock:<20} contended={lk.contended:<5} "
            f"p50 wait={lk.p50_wait_ns:<8} max wait={lk.max_wait_ns:<8} "
            f"total={lk.total_wait_ns} ns"
        )
    if not a.locks:
        lines.append("  (no contended lock handoffs traced)")
    lines.append(f"== top {len(a.slowest)} slowest tasks (submit→complete) ==")
    for s in a.slowest:
        lines.append(
            f"  {s.task:<20} {s.latency_ns:>8} ns  core{s.core}  {s.queue}"
        )
    if not a.slowest:
        lines.append("  (no completed tasks traced)")
    return "\n".join(lines)
