"""Formatting helpers: print paper-shaped tables and series.

Every benchmark result type in :mod:`repro.bench` has a renderer here so
that the CLI and EXPERIMENTS.md (``tools/make_experiments.py``) show the
same rows the paper reports.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.latency import LatencySeries
from repro.bench.overlap import OverlapSeries
from repro.bench.task_microbench import MicrobenchResult


def format_microbench(res: MicrobenchResult, paper: Optional[dict] = None) -> str:
    """Render a Table I/II-style block (optionally with paper targets)."""
    lines = [f"Task-scheduling microbenchmark on {res.machine} ({res.ncores} cores)"]
    header = f"{'queue':<12}{'mean ns':>10}{'min':>8}{'max':>9}"
    if paper:
        header += f"{'paper ns':>10}{'ratio':>7}"
    lines.append(header)
    for row in res.all_rows():
        line = f"{row.label:<12}{row.mean_ns:>10.0f}{row.min_ns:>8}{row.max_ns:>9}"
        if paper:
            # `t` may legitimately be 0 (a paper target of "negligible"):
            # only a *missing* target renders as "-", and a 0 target shows
            # no ratio (it would divide by zero).
            t = paper.get(row.label)
            if t is None:
                line += f"{'-':>10}{'-':>7}"
            elif t == 0:
                line += f"{t:>10}{'-':>7}"
            else:
                line += f"{t:>10}{row.mean_ns / t:>7.2f}"
        lines.append(line)
    if res.global_row and res.global_row.shares:
        shares = ", ".join(
            f"#{c}:{s:.0%}" for c, s in sorted(res.global_row.shares.items())
        )
        lines.append(f"global-queue execution shares: {shares}")
    return "\n".join(lines)


def format_latency(series: Sequence[LatencySeries], tails: bool = False) -> str:
    """Render the Fig. 4 table: one row per thread count.

    With ``tails`` each implementation also shows its p99, exposing the
    latency *distribution* the mean hides (the baseline's tail blows up
    first as threads multiply).
    """
    if not series:
        return "(no series)"
    # Union of thread counts across series: implementations measured over
    # ragged grids (e.g. a baseline that stops scaling early) render "-"
    # instead of crashing on the first count they lack.
    counts = sorted({p.threads for s in series for p in s.points})
    lines = ["Multi-threaded latency (one-way, us)"]
    header = f"{'threads':>8}"
    for s in series:
        header += f"{s.impl:>12}"
        if tails:
            header += f"{s.impl + ' p99':>14}"
    lines.append(header)
    for n in counts:
        row = f"{n:>8}"
        for s in series:
            point = next((p for p in s.points if p.threads == n), None)
            if point is None:
                row += f"{'-':>12}"
                if tails:
                    row += f"{'-':>14}"
                continue
            row += f"{point.mean_one_way_ns / 1000:>12.2f}"
            if tails:
                row += f"{point.p99_ns / 1000:>14.2f}"
        lines.append(row)
    return "\n".join(lines)


def format_overlap(series: Sequence[OverlapSeries]) -> str:
    """Render Figs. 5/6/7: one block per message size."""
    if not series:
        return "(no series)"
    lines: list[str] = []
    sizes = sorted({s.size_bytes for s in series})
    placement = series[0].placement
    for size in sizes:
        group = [s for s in series if s.size_bytes == size]
        label = f"{size // 1024} KB" if size < 1024 * 1024 else f"{size // (1024 * 1024)} MB"
        lines.append(f"Overlap ratio — computation on {placement}, {label}")
        xs = [p.compute_ns for p in group[0].points]
        header = f"{'comp us':>9}" + "".join(f"{s.impl:>10}" for s in group)
        lines.append(header)
        for x in xs:
            row = f"{x / 1000:>9.0f}"
            for s in group:
                row += f"{s.ratio_at(x):>10.2f}"
            lines.append(row)
        lines.append("")
    return "\n".join(lines)


def sparkline(values: Sequence[float], lo: float = 0.0, hi: float = 1.0) -> str:
    """Tiny unicode sparkline, used by the examples for quick visuals."""
    blocks = "▁▂▃▄▅▆▇█"
    span = (hi - lo) or 1.0
    out = []
    for v in values:
        idx = int((min(max(v, lo), hi) - lo) / span * (len(blocks) - 1))
        out.append(blocks[idx])
    return "".join(out)
