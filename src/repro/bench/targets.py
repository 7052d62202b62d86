"""The table of the paper's runs: one job spec per run, one CLI artifact
per table or figure.

:data:`SPECS` holds every seeded simulation EXPERIMENTS.md reports, as
picklable :class:`repro.par.JobSpec` jobs.  ``tools/make_experiments.py``
runs them all, asserts the paper's shapes on the results and writes the
file.  ``python -m repro.bench <artifact>`` runs the job
:data:`ARTIFACTS` maps the artifact to and prints its result with
:func:`render`, the renderer of the matching EXPERIMENTS.md block.  Both
read this one table, so the CLI prints the numbers the file holds.

``--metrics-out``/``--trace-out`` instrument one run,
:func:`run_observed`: Table I's job with a registry and a tracer on its
global-queue row.
"""

from __future__ import annotations

from typing import Any

from repro.par import JobSpec

#: every heavy computation EXPERIMENTS.md needs, as picklable job specs —
#: one flat list so --jobs N overlaps tables, figures and ablations
SPECS = [
    JobSpec("table_borderline", "repro.bench.task_microbench:run_task_microbench_named",
            dict(machine="borderline", reps=300, seed=1)),
    JobSpec("table_kwak", "repro.bench.task_microbench:run_task_microbench_named",
            dict(machine="kwak", reps=300, seed=1)),
    JobSpec("growth_borderline", "repro.bench.task_microbench:run_task_microbench_named",
            dict(machine="borderline", reps=200, seed=3)),
    JobSpec("growth_kwak", "repro.bench.task_microbench:run_task_microbench_named",
            dict(machine="kwak", reps=200, seed=3)),
    JobSpec("fig4", "repro.bench.latency:run_fig4",
            dict(thread_counts=(1, 2, 4, 8, 16, 32, 64, 128),
                 iters_per_thread=3, seed=0)),
    JobSpec("fig5", "repro.bench.overlap:run_overlap_figure",
            dict(placement="sender", npoints=9, reps=2, seed=0)),
    JobSpec("fig6", "repro.bench.overlap:run_overlap_figure",
            dict(placement="receiver", npoints=9, reps=2, seed=0)),
    JobSpec("fig7", "repro.bench.overlap:run_overlap_figure",
            dict(placement="both", npoints=9, reps=2, seed=0)),
    JobSpec("ablations", "repro.bench.ablations:run_ablation_suite", {}),
    JobSpec("scalability", "repro.bench.scalability:run_scalability",
            dict(reps=100)),
    JobSpec("bandwidth", "repro.bench.bandwidth:run_bandwidth",
            dict(iters=3)),
]

#: CLI artifact -> (the SPECS job it prints, its header); "all" is every
#: artifact in this order.  The growth_* jobs feed only EXPERIMENTS.md.
ARTIFACTS = {
    "table1": ("table_borderline", "TABLE1 (borderline)"),
    "table2": ("table_kwak", "TABLE2 (kwak)"),
    "fig4": ("fig4", "FIG 4 (multi-threaded latency)"),
    "fig5": ("fig5", "FIG5 (overlap, computation on sender)"),
    "fig6": ("fig6", "FIG6 (overlap, computation on receiver)"),
    "fig7": ("fig7", "FIG7 (overlap, computation on both)"),
    "scalability": ("scalability", "SCALABILITY (extension: global queue vs core count)"),
    "bandwidth": ("bandwidth", "BANDWIDTH (extension: OSU-style streaming)"),
    "ablations": ("ablations", "ABLATIONS (design choices A1-A6)"),
}

#: what the --metrics-out snapshot and the --trace-out timeline describe
OBSERVED = "table1 global-queue row (borderline)"


def render(artifact: str, result: Any) -> str:
    """``artifact``'s block of EXPERIMENTS.md, from its job's result (the
    ablations, whose section there is prose, render as a table)."""
    if artifact in ("table1", "table2"):
        from repro.bench.paper_targets import targets_for
        from repro.bench.reporting import format_microbench

        return format_microbench(result, paper=targets_for(result.machine))
    if artifact == "fig4":
        from repro.bench.reporting import format_latency

        return format_latency(result)
    if artifact in ("fig5", "fig6", "fig7"):
        from repro.bench.reporting import format_overlap

        return format_overlap(result)
    if artifact == "bandwidth":
        from repro.bench.bandwidth import format_bandwidth

        return format_bandwidth(result)
    return result.format()  # ScaleStudy, AblationSuite


def run_observed() -> tuple:
    """Table I's job with a fresh registry and tracer on its global-queue
    row: ``(result, metrics snapshot, Chrome-trace document)``.  The
    result is the one Table I's plain job returns."""
    from repro.bench.task_microbench import run_task_microbench_named
    from repro.obs import MetricsRegistry, chrome_trace
    from repro.sim.trace import Tracer

    registry, tracer = MetricsRegistry(), Tracer(enabled=True)
    spec = next(s for s in SPECS if s.name == ARTIFACTS["table1"][0])
    res = run_task_microbench_named(**spec.kwargs, registry=registry, tracer=tracer)
    meta = {"source": OBSERVED, "machine": res.machine, "ncores": res.ncores}
    return res, registry.snapshot(), chrome_trace(tracer, meta=meta)
