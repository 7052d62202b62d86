"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro.bench table1
    python -m repro.bench fig6 fig7
    python -m repro.bench all --json results.json   # machine-readable dump
    python -m repro.bench all --jobs 4              # multi-process fan-out
    python -m repro.bench scalability bandwidth     # extensions
    python -m repro.bench ablations                 # design-choice matrix
    python -m repro.bench table1 --metrics-out m.json --trace-out t.json
    python -m repro.bench analyze --trace t.json    # offline trace analysis
    python -m repro.bench analyze --trace t.json --analysis-out a.json
    python -m repro.bench analyze --trace t.json --critical-path
    python -m repro.bench diff A.json B.json        # ranked blame report
    python -m repro.bench render --trace t.json --gantt-out g.svg
    python -m repro.bench render --trace t.json --term
    python -m repro.bench perf                      # record BENCH_host_perf.json
    python -m repro.bench perf --check BENCH_host_perf.json  # identity check

(also installed as the ``repro-bench`` console script).

Each artifact runs its job of :data:`repro.bench.targets.SPECS`, the
seeded runs EXPERIMENTS.md reports, and prints the block that file
holds for it.  ``--metrics-out``/``--trace-out`` always describe one
run, Table I's job with a registry and tracer on its global-queue row,
which also prints ``table1`` when that artifact is named.

``--jobs N`` fans the artifacts out over ``repro.par`` worker processes;
every simulation is seeded and shared-nothing, so the output (tables,
JSON, metrics, traces) is bit-identical to a serial run — only the wall
clock changes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Any, Sequence

from repro.bench.targets import ARTIFACTS, OBSERVED, SPECS, render
from repro.par import JobFailure, JobSpec, resolve_jobs, run_jobs_strict


def to_jsonable(obj: Any) -> Any:
    """Recursively convert bench result objects to plain JSON data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def out_path(text: str) -> str:
    """argparse ``type=`` of every output-path flag: a path whose directory
    is missing fails at parse time (exit 2, naming the flag), before any
    simulation runs."""
    parent = os.path.dirname(os.path.abspath(text))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"directory {parent} does not exist")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text} is a directory")
    return text


def positive_int(text: str) -> int:
    """argparse ``type=`` of every count flag: a count below 1 fails at
    parse time (exit 2, naming the flag), before any simulation runs."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not a positive count")
    return n


def positive_seconds(text: str) -> float:
    """argparse ``type=`` of every timeout flag: a limit that is not a
    positive finite number of seconds fails at parse time (exit 2,
    naming the flag), before any set-up."""
    try:
        s = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (math.isfinite(s) and s > 0):
        raise argparse.ArgumentTypeError(f"{text} is not a positive finite time")
    return s


def positive_ints(text: str) -> list[int]:
    """A comma-separated list of :func:`positive_int` counts."""
    return [positive_int(x) for x in text.split(",") if x]


def _analyze_main(argv: Sequence[str]) -> int:
    """The ``analyze`` subcommand: offline report over a --trace-out file."""
    from repro.obs.analyze import analyze_trace_file, format_analysis

    ap = argparse.ArgumentParser(
        prog="repro-bench analyze",
        description="Analyze a --trace-out JSON file: per-core utilization, "
        "submit→run latency percentiles per queue level, lock contention, "
        "slowest tasks.",
    )
    ap.add_argument("--trace", metavar="PATH", required=True,
                    help="Chrome-trace JSON written by --trace-out")
    ap.add_argument("--top", type=positive_int, default=10,
                    help="how many slowest tasks to list (default 10)")
    ap.add_argument("--cores", type=positive_int, default=None,
                    help="force the per-core section to cover N cores "
                    "(default: the count stamped in the trace, else the "
                    "cores observed)")
    ap.add_argument("--analysis-out", metavar="PATH", type=out_path, default=None,
                    help="also dump the analysis as JSON to PATH")
    ap.add_argument("--scenario", default=None,
                    help="scenario name for the meta header (default: the "
                    "name stamped in the trace, if any)")
    ap.add_argument("--critical-path", action="store_true",
                    help="walk the causal edges backward from the last "
                    "completion and print the makespan attribution")
    ap.add_argument("--critpath-out", metavar="PATH", type=out_path, default=None,
                    help="dump the critical path as JSON to PATH")
    args = ap.parse_args(argv)
    analysis = analyze_trace_file(
        args.trace, ncores=args.cores, top_n=args.top, scenario=args.scenario
    )
    print(format_analysis(analysis))
    if args.critical_path or args.critpath_out:
        from repro.obs.critpath import (
            extract_critical_path_file,
            format_critical_path,
        )

        cp = extract_critical_path_file(args.trace)
        print()
        print(format_critical_path(cp))
        if args.critpath_out:
            with open(args.critpath_out, "w") as fh:
                json.dump(cp.to_jsonable(), fh, indent=1)
            print(f"\nwrote {args.critpath_out}")
    if args.analysis_out:
        with open(args.analysis_out, "w") as fh:
            json.dump(analysis.to_jsonable(), fh, indent=1)
        print(f"\nwrote {args.analysis_out}")
    return 0


def _diff_main(argv: Sequence[str]) -> int:
    """The ``diff`` subcommand: ranked blame report between two documents."""
    from repro.obs.diff import diff_files, format_diff

    ap = argparse.ArgumentParser(
        prog="repro-bench diff",
        description="Compare two perf/analysis/metrics/trace JSON "
        "documents and print a ranked blame report (largest change "
        "first, dominant subsystem named).",
    )
    ap.add_argument("a", metavar="A.json", help="baseline document")
    ap.add_argument("b", metavar="B.json", help="new document")
    ap.add_argument("--top", type=positive_int, default=4,
                    help="counters shown per entry (default 4)")
    ap.add_argument("--json-out", metavar="PATH", type=out_path, default=None,
                    help="also dump the structured diff to PATH")
    args = ap.parse_args(argv)
    try:
        report = diff_files(args.a, args.b)
    except ValueError as exc:
        print(f"diff failed: {exc}", file=sys.stderr)
        return 1
    print(format_diff(report, top_items=args.top))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.to_jsonable(), fh, indent=1)
        print(f"\nwrote {args.json_out}")
    return 0


def _render_main(argv: Sequence[str]) -> int:
    """The ``render`` subcommand: Gantt/utilization charts over a trace."""
    from repro.obs.critpath import extract_critical_path
    from repro.obs.gantt import render_gantt_svg, render_gantt_term

    ap = argparse.ArgumentParser(
        prog="repro-bench render",
        description="Render a --trace-out JSON file as a Gantt chart: "
        "per-core lanes, task slices colored by state, critical path "
        "overlaid (SVG via --gantt-out, terminal via --term).",
    )
    ap.add_argument("--trace", metavar="PATH", required=True,
                    help="Chrome-trace JSON written by --trace-out")
    ap.add_argument("--gantt-out", metavar="PATH", type=out_path, default=None,
                    help="write an SVG Gantt chart to PATH")
    ap.add_argument("--term", action="store_true",
                    help="print a block-character chart to stdout "
                    "(default when no --gantt-out is given)")
    ap.add_argument("--width", type=positive_int, default=1000,
                    help="SVG width in px (default 1000)")
    ap.add_argument("--term-width", type=positive_int, default=72,
                    help="terminal chart columns (default 72)")
    ap.add_argument("--title", default="", help="SVG title line")
    args = ap.parse_args(argv)
    with open(args.trace) as fh:
        doc = json.load(fh)
    cp = extract_critical_path(doc)
    if args.gantt_out:
        svg = render_gantt_svg(
            doc, critical_path=cp, width=args.width, title=args.title
        )
        with open(args.gantt_out, "w") as fh:
            fh.write(svg)
        print(f"wrote {args.gantt_out}")
    if args.term or not args.gantt_out:
        print(render_gantt_term(doc, critical_path=cp, width=args.term_width))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "analyze":
        return _analyze_main(list(argv[1:]))
    if argv and argv[0] == "diff":
        return _diff_main(list(argv[1:]))
    if argv and argv[0] == "render":
        return _render_main(list(argv[1:]))
    if argv and argv[0] == "perf":
        from repro.bench.hostperf import main as perf_main

        return perf_main(list(argv[1:]))
    if argv and argv[0] == "cluster-scale":
        from repro.bench.cluster_scale import main as scale_main

        return scale_main(list(argv[1:]))
    ap = argparse.ArgumentParser(
        prog="repro-bench", description="Regenerate the paper's tables and figures."
    )
    ap.add_argument(
        "targets",
        nargs="+",
        choices=[*ARTIFACTS, "all"],
        help="which artifacts to regenerate",
    )
    ap.add_argument(
        "--jobs", type=resolve_jobs, default=1, metavar="N",
        help="fan the artifacts out over N worker processes "
        "('auto' or 0 = every CPU; default 1 = in-process serial; "
        "results are bit-identical either way)",
    )
    ap.add_argument(
        "--job-timeout", type=positive_seconds, default=None, metavar="S",
        help="per-artifact wall-clock limit in seconds when using --jobs",
    )
    ap.add_argument(
        "--json", metavar="PATH", type=out_path, default=None,
        help="also dump every regenerated series to PATH as JSON",
    )
    ap.add_argument(
        "--metrics-out", metavar="PATH", type=out_path, default=None,
        help="dump a flat MetricsRegistry snapshot of Table I's "
        "global-queue row to PATH as JSON",
    )
    ap.add_argument(
        "--trace-out", metavar="PATH", type=out_path, default=None,
        help="dump that row's task timeline to PATH as Chrome-trace JSON "
        "(load in chrome://tracing or ui.perfetto.dev)",
    )
    args = ap.parse_args(argv)
    artifacts = list(ARTIFACTS if "all" in args.targets else dict.fromkeys(args.targets))

    observe = bool(args.metrics_out or args.trace_out)
    by_name = {s.name: s for s in SPECS}
    specs = [
        by_name[ARTIFACTS[a][0]] for a in artifacts if not (observe and a == "table1")
    ]
    if observe:
        specs.append(JobSpec("observed", "repro.bench.targets:run_observed"))
    try:
        values = run_jobs_strict(specs, jobs=args.jobs, timeout_s=args.job_timeout)
    except JobFailure as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return 1
    results = dict(zip([s.name for s in specs], values))
    if observe:
        results[ARTIFACTS["table1"][0]], snap, doc = results.pop("observed")

    collected: dict[str, Any] = {}
    for a in artifacts:
        spec, header = ARTIFACTS[a]
        print(f"\n=== {header} ===")
        print(render(a, results[spec]))
        collected[a] = to_jsonable(results[spec])

    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump({"meta": {"source": OBSERVED}, "metrics": snap}, fh, indent=1)
        print(f"\nwrote {args.metrics_out} ({len(snap)} counters, {OBSERVED})")
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        print(f"wrote {args.trace_out} ({len(doc['traceEvents'])} trace "
              f"events, {OBSERVED})")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(collected, fh, indent=2)
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    sys.exit(main())
