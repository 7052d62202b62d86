"""Dependency-free Gantt/utilization rendering over a trace.

Closes the renderer remainder of ROADMAP item 5: turn a trace (live
``Tracer`` or ``--trace-out`` document) into

* an **SVG** Gantt chart — one lane per core with task slices colored by
  state (completing runs vs repeat polls), fault markers, per-lane busy
  percentages, and an optional critical-path overlay lane colored by
  attribution bucket (:mod:`repro.obs.critpath`);
* a **terminal** chart — the same lanes as block characters, plus a
  critical-path row spelled in category letters.

Both renderers are pure string builders: no matplotlib, no external
anything — CI uploads the SVG as an artifact next to the JSON trace.

``python -m repro.bench render --trace t.json --gantt-out g.svg [--term]``
"""

from __future__ import annotations

import html
from typing import Optional, Union

from repro.obs.analyze import _ingest
from repro.obs.critpath import CriticalPath, extract_critical_path

#: critical-path bucket colors (shared by SVG and legend)
CATEGORY_COLORS = {
    "compute": "#59a14f",
    "queue_wait": "#f28e2b",
    "lock_wait": "#e15759",
    "nic": "#76b7b2",
    "retransmit": "#b07aa1",
    "wakeup": "#edc948",
    "untraced": "#bab0ac",
}

#: one-letter codes for the terminal critical-path row
CATEGORY_LETTERS = {
    "compute": "C",
    "queue_wait": "Q",
    "lock_wait": "L",
    "nic": "N",
    "retransmit": "R",
    "wakeup": "W",
    "untraced": ".",
}

_RUN_COLOR = "#4e79a7"  # completing run slice
_POLL_COLOR = "#a0cbe8"  # repeat poll slice
_FAULT_COLOR = "#e15759"


def _lanes(source):
    """(runs, faults, t_start, t_end, ncores) of a tracer or doc; the core
    count covers the doc's stamped ``ncores`` and every core that ran."""
    trace = _ingest(source)
    meta_n = trace.other.get("ncores")
    max_core = max((r.core for r in trace.runs), default=-1)
    n = max(int(meta_n) if meta_n else 0, max_core + 1)
    return trace.runs, trace.faults, trace.t_start, trace.t_end, n


def _fmt_ns(ns: int) -> str:
    if ns >= 1_000_000:
        return f"{ns / 1_000_000:g} ms"
    if ns >= 1_000:
        return f"{ns / 1_000:g} µs"
    return f"{ns} ns"


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------
def render_gantt_svg(
    source: Union["Tracer", dict],  # noqa: F821 - duck-typed
    *,
    critical_path: Optional[CriticalPath] = None,
    width: int = 1000,
    lane_height: int = 22,
    title: str = "",
) -> str:
    """Render the trace as a self-contained SVG string."""
    runs, faults, t0, t1, ncores = _lanes(source)
    if critical_path is None:
        critical_path = extract_critical_path(source)
    span = max(t1 - t0, 1)
    left, top, right = 80, 34, 16
    plot_w = max(width - left - right, 100)

    def x(t: int) -> float:
        return left + (t - t0) * plot_w / span

    lanes = []  # (label, y) rows: critical path, faults (if any), cores
    y = top
    has_cp = bool(critical_path.segments)
    if has_cp:
        lanes.append(("critpath", y))
        y += lane_height + 4
    if faults:
        lanes.append(("faults", y))
        y += lane_height + 4
    core_y = {}
    for c in range(ncores):
        lanes.append((f"core{c}", y))
        core_y[c] = y
        y += lane_height + 4
    legend_y = y + 10
    height = legend_y + 40

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    head = title or f"gantt: {len(runs)} slices over {_fmt_ns(span)}"
    out.append(f'<text x="{left}" y="16" font-size="13">{html.escape(head)}</text>')

    # time axis: 6 ticks
    for i in range(7):
        t = t0 + span * i // 6
        xi = x(t)
        out.append(
            f'<line x1="{xi:.1f}" y1="{top - 4}" x2="{xi:.1f}" '
            f'y2="{legend_y - 6}" stroke="#eee"/>'
        )
        out.append(
            f'<text x="{xi:.1f}" y="{top - 8}" text-anchor="middle" '
            f'fill="#888">{html.escape(_fmt_ns(t - t0))}</text>'
        )

    # lane labels + backgrounds
    for label, ly in lanes:
        out.append(
            f'<text x="{left - 8}" y="{ly + lane_height - 7}" '
            f'text-anchor="end">{html.escape(label)}</text>'
        )
        out.append(
            f'<rect x="{left}" y="{ly}" width="{plot_w}" '
            f'height="{lane_height}" fill="#f7f7f7"/>'
        )

    # critical-path overlay lane, colored by bucket
    if has_cp:
        cp_y = lanes[0][1]
        for seg in critical_path.segments:
            if seg.duration_ns <= 0:
                continue
            color = CATEGORY_COLORS.get(seg.category, "#999")
            x0, x1 = x(seg.start), x(seg.end)
            w = max(x1 - x0, 0.5)
            label = html.escape(f"{seg.category} {seg.duration_ns} ns {seg.kind}")
            out.append(
                f'<rect x="{x0:.1f}" y="{cp_y + 2}" width="{w:.1f}" '
                f'height="{lane_height - 4}" fill="{color}">'
                f"<title>{label}</title></rect>"
            )

    # fault markers
    if faults:
        f_y = lanes[1][1] if has_cp else lanes[0][1]
        for f in faults:
            xi = x(f.time)
            out.append(
                f'<line x1="{xi:.1f}" y1="{f_y + 2}" x2="{xi:.1f}" '
                f'y2="{f_y + lane_height - 2}" stroke="{_FAULT_COLOR}" '
                f'stroke-width="1.5"><title>{html.escape(f.kind)}</title></line>'
            )

    # per-core run slices + utilization
    busy = {c: 0 for c in range(ncores)}
    for r in runs:
        if r.core not in core_y:
            continue
        busy[r.core] += r.end - r.start
        color = _RUN_COLOR if r.complete else _POLL_COLOR
        x0, x1 = x(r.start), x(r.end)
        w = max(x1 - x0, 0.5)
        ly = core_y[r.core]
        label = html.escape(f"{r.task} {r.end - r.start} ns ({r.queue})")
        out.append(
            f'<rect x="{x0:.1f}" y="{ly + 2}" width="{w:.1f}" '
            f'height="{lane_height - 4}" fill="{color}">'
            f"<title>{label}</title></rect>"
        )
    for c in range(ncores):
        util = 100 * busy[c] / span
        ly = core_y[c]
        out.append(
            f'<text x="{left + plot_w + 4}" y="{ly + lane_height - 7}" '
            f'fill="#666">{util:.1f}%</text>'
        )

    # legend
    lx = left
    entries = [("run", _RUN_COLOR), ("poll", _POLL_COLOR)]
    if has_cp:
        entries += [
            (cat, col)
            for cat, col in CATEGORY_COLORS.items()
            if critical_path.totals.get(cat)
        ]
    if faults:
        entries.append(("fault", _FAULT_COLOR))
    for name, color in entries:
        out.append(
            f'<rect x="{lx}" y="{legend_y}" width="10" height="10" fill="{color}"/>'
        )
        out.append(
            f'<text x="{lx + 14}" y="{legend_y + 9}">{html.escape(name)}</text>'
        )
        lx += 24 + 7 * len(name)
    out.append("</svg>")
    return "\n".join(out)


def write_gantt_svg(
    path: str,
    source: Union["Tracer", dict],  # noqa: F821
    *,
    critical_path: Optional[CriticalPath] = None,
    width: int = 1000,
    title: str = "",
) -> str:
    """Render and write; returns the path for chaining."""
    svg = render_gantt_svg(
        source, critical_path=critical_path, width=width, title=title
    )
    with open(path, "w") as fh:
        fh.write(svg)
    return path


# ---------------------------------------------------------------------------
# terminal
# ---------------------------------------------------------------------------
def render_gantt_term(
    source: Union["Tracer", dict],  # noqa: F821
    *,
    critical_path: Optional[CriticalPath] = None,
    width: int = 72,
) -> str:
    """Block-character Gantt chart for a terminal.

    Per-core rows use ``█`` for completing runs and ``░`` for repeat
    polls; the ``cpath`` row spells the dominant attribution bucket of
    each time bin (C=compute Q=queue L=lock N=nic R=retransmit W=wakeup
    .=untraced)."""
    runs, faults, t0, t1, ncores = _lanes(source)
    if critical_path is None:
        critical_path = extract_critical_path(source)
    span = max(t1 - t0, 1)
    cols = max(width, 10)

    def col_span(start: int, end: int) -> range:
        c0 = (start - t0) * cols // span
        c1 = max((end - t0) * cols // span, c0 + 1)
        return range(max(c0, 0), min(c1, cols))

    lines = [
        f"gantt over {_fmt_ns(span)} ({len(runs)} slices, {ncores} cores)"
    ]
    if critical_path.segments:
        # dominant bucket per column, latest-starting segment wins ties
        row = [" "] * cols
        fill = {c: {} for c in range(cols)}
        for seg in critical_path.segments:
            for c in col_span(seg.start, seg.end):
                fill[c][seg.category] = (
                    fill[c].get(seg.category, 0) + seg.duration_ns
                )
        for c in range(cols):
            if fill[c]:
                cat = max(sorted(fill[c]), key=lambda k: fill[c][k])
                row[c] = CATEGORY_LETTERS.get(cat, "?")
        lines.append(f"  cpath |{''.join(row)}|")
    for core in range(ncores):
        row = [" "] * cols
        busy = 0
        for r in runs:
            if r.core != core:
                continue
            busy += r.end - r.start
            ch = "█" if r.complete else "░"
            for c in col_span(r.start, r.end):
                if row[c] != "█":
                    row[c] = ch
        util = 100 * busy / span
        lines.append(f"  core{core:<2}|{''.join(row)}| {util:5.1f}%")
    if faults:
        row = [" "] * cols
        for f in faults:
            for c in col_span(f.time, f.time + 1):
                row[c] = "!"
        lines.append(f"  fault |{''.join(row)}|")
    lines.append(
        "  key: █ run  ░ poll  ! fault   cpath: C=compute Q=queue "
        "L=lock N=nic R=retransmit W=wakeup .=untraced"
    )
    return "\n".join(lines)

