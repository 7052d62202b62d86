"""Benchmark harnesses regenerating every table and figure of the paper.

The names load on first access, so ``python -m repro.bench`` loads only
what the chosen command runs.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy(__name__, {
    "repro.bench.task_microbench": (
        "MicrobenchResult", "RowResult", "measure_queue", "run_task_microbench",
    ),
    "repro.bench.latency": (
        "LatencyPoint", "LatencySeries", "run_fig4", "run_latency_once",
    ),
    "repro.bench.overlap": (
        "OverlapPoint", "OverlapSeries", "PLACEMENTS", "compute_grid",
        "run_overlap_figure", "run_overlap_once",
    ),
    "repro.bench.paper_targets": (
        "ANOMALIES", "PAPER_TABLES", "TABLE1_BORDERLINE", "TABLE2_KWAK", "targets_for",
    ),
    "repro.bench.reporting": (
        "format_latency", "format_microbench", "format_overlap", "sparkline",
    ),
})

__all__ = [
    "MicrobenchResult",
    "RowResult",
    "measure_queue",
    "run_task_microbench",
    "LatencyPoint",
    "LatencySeries",
    "run_fig4",
    "run_latency_once",
    "OverlapPoint",
    "OverlapSeries",
    "PLACEMENTS",
    "compute_grid",
    "run_overlap_figure",
    "run_overlap_once",
    "TABLE1_BORDERLINE",
    "TABLE2_KWAK",
    "PAPER_TABLES",
    "ANOMALIES",
    "targets_for",
    "format_microbench",
    "format_latency",
    "format_overlap",
    "sparkline",
]
