"""Unified observability: metrics registry, latency histograms,
Chrome-trace export, and offline trace analysis.

Complementary views of one simulation run:

* :class:`MetricsRegistry` — every stats-bearing object (task queues,
  spinlocks, cache lines, PIOMan, scheduler cores, NICs, nmad gates)
  registered under a stable dot-path; ``snapshot()``/``diff()`` give the
  machine-readable counters the paper's tables are built from.
* :class:`Histogram` — power-of-two log-bucketed latency distributions
  (queue wait, submit→complete, lock wait/hold, keypoint pass duration),
  scraped into stable ``….p50/.p90/.p99`` registry paths.
* :func:`chrome_trace` / :func:`write_chrome_trace` — convert a
  :class:`repro.sim.trace.Tracer` into a chrome://tracing / Perfetto
  timeline with task lifetimes as per-core slices.
* :func:`analyze_trace` / :func:`format_analysis` — offline analysis of a
  live tracer or an exported trace file: per-core utilization, per-level
  submit→run percentiles, lock contention, slowest tasks.
* :func:`union_snapshots` — order-independent folding of the per-shard
  snapshots of a node-sharded cluster run into the single-process one.
* :func:`extract_critical_path` / :func:`format_critical_path` — walk
  the causal edges backward from the last completion and attribute the
  makespan to subsystems and topology levels.
* :func:`diff_docs` / :func:`format_diff` — ranked blame report between
  two perf/analysis/metrics documents (``bench diff``).
* :func:`render_gantt_svg` / :func:`render_gantt_term` — dependency-free
  Gantt/utilization charts with the critical path overlaid.

All are wired through the bench CLI (``--metrics-out`` / ``--trace-out`` /
``analyze``) so every benchmark run can emit and inspect its internals
next to its paper-shaped table.

The simulator's layers import :mod:`repro.obs.histogram` and
:mod:`repro.obs.registry` directly; the names below load on first
access, so a simulation never loads the offline analyzers.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy(__name__, {
    "repro.obs.analyze": (
        "TraceAnalysis", "analyze_trace", "analyze_trace_file", "format_analysis",
    ),
    "repro.obs.chrometrace": ("chrome_trace", "write_chrome_trace"),
    "repro.obs.critpath": (
        "CriticalPath", "extract_critical_path", "extract_critical_path_file",
        "format_critical_path",
    ),
    "repro.obs.diff": ("DiffReport", "diff_docs", "diff_files", "format_diff"),
    "repro.obs.gantt": ("render_gantt_svg", "render_gantt_term", "write_gantt_svg"),
    "repro.obs.histogram": ("Histogram",),
    "repro.obs.merge": ("union_snapshots",),
    "repro.obs.registry": ("MetricsRegistry",),
})

__all__ = [
    "CriticalPath",
    "DiffReport",
    "Histogram",
    "MetricsRegistry",
    "TraceAnalysis",
    "analyze_trace",
    "analyze_trace_file",
    "chrome_trace",
    "diff_docs",
    "diff_files",
    "extract_critical_path",
    "extract_critical_path_file",
    "format_analysis",
    "format_critical_path",
    "format_diff",
    "union_snapshots",
    "render_gantt_svg",
    "render_gantt_term",
    "write_chrome_trace",
    "write_gantt_svg",
]
