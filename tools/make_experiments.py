"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table & figure.

Run:  python3 tools/make_experiments.py              (takes a few minutes)
      python3 tools/make_experiments.py --jobs 4     (multi-process fan-out)

Every section is an independent seeded simulation, so the heavy runs are
declared as ``repro.par`` job specs and fanned out over worker processes
when ``--jobs > 1``; the rendered markdown is bit-identical to a serial
run either way (results merge back in spec order, seeds live in the
specs).
"""

from __future__ import annotations

import argparse
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# this checkout's package source, whether or not the package is installed
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.bench.paper_targets import targets_for  # noqa: E402
from repro.bench.reporting import format_latency, format_microbench, format_overlap  # noqa: E402
from repro.bench.bandwidth import format_bandwidth  # noqa: E402
from repro.par import JobSpec, resolve_jobs, run_jobs_strict  # noqa: E402

OUT = "EXPERIMENTS.md"

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation (§V), regenerated by
this repository's benchmark harness on the simulated substrate, plus the
design-choice ablations from DESIGN.md.  Regenerate this file with
`python3 tools/make_experiments.py`; individual artifacts with
`python -m repro.bench <table1|table2|fig4|fig5|fig6|fig7>`.

**Reading guidance.** Absolute nanoseconds depend on the paper authors'
2009 Opteron testbed; the reproduction targets *shape*: orderings, growth
with core/thread count, who overlaps where.  Transfer/invalidation
latencies were calibrated once against the paper's *uncontended* rows
(per-core queues); every contended number below is emergent from the
model's doorbell races, stale-read lock pile-ups and NUMA-biased
handoffs.  The paper's own anomalies (borderline core #7 = 1819 ns, kwak
4th per-chip queue = 5216 ns), attributed by the authors to an
unexplained race condition, are excluded from comparison.

Harness conventions: the Table I/II microbenchmark submits from core #0
and, for multi-core CPU sets, waits spinning on the completion word while
the allowed cores race for the task (the paper's observed regime — their
measured distributions show remote cores executing the tasks).  For the
single-core-#0 row the submitter drives progression itself, as the paper
notes ("this core both creates tasks and executes them").
"""

#: every heavy computation this report needs, as picklable job specs —
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


def parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        description="Regenerate EXPERIMENTS.md (paper vs. measured)."
    )
    ap.add_argument("--jobs", type=resolve_jobs, default=1, metavar="N",
                    help="fan the independent computations out over N "
                    "worker processes ('auto' or 0 = every CPU; default 1 "
                    "= serial; output is bit-identical either way)")
    return ap


def main(argv: list[str] | None = None) -> None:
    args = parser().parse_args(argv)

    res = dict(
        zip([s.name for s in SPECS], run_jobs_strict(SPECS, jobs=args.jobs))
    )

    buf = io.StringIO()
    w = buf.write
    w(HEADER)

    # ---------------------------------------------------------- tables
    for name, key, table in (
        ("Table I — borderline (4-way dual-core, 8 cores)", "table_borderline", "borderline"),
        ("Table II — kwak (4-way quad-core, 16 cores, NUMA)", "table_kwak", "kwak"),
    ):
        result = res[key]
        w(f"\n## {name}\n\n```\n")
        w(format_microbench(result, paper=targets_for(table)))
        w("\n```\n\n")
        ref = result.reference_ns()
        w(f"- reference (core #0, local): paper {targets_for(table)['core#0']} ns, "
          f"measured {ref:.0f} ns\n")
        g = result.global_row.mean_ns
        w(f"- global queue: paper {targets_for(table)['global']} ns, measured "
          f"{g:.0f} ns ({g / ref:.1f}x the local reference)\n")
        if table == "kwak":
            shares = result.global_row.shares
            top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
            w(f"- global-queue pickup is NUMA-unbalanced (paper: 'most of the "
              f"tasks are executed by cores located on NUMA node #2'); busiest "
              f"cores here: {', '.join(f'#{c} {s:.0%}' for c, s in top)}\n")

    r8 = res["growth_borderline"]
    r16 = res["growth_kwak"]
    ratio = r16.global_row.mean_ns / r8.global_row.mean_ns
    w("\n- global-queue growth with core count: paper 13585/4720 = 2.88x; "
      f"measured {r16.global_row.mean_ns:.0f}/{r8.global_row.mean_ns:.0f} = {ratio:.2f}x\n")

    # ---------------------------------------------------------- fig 4
    w("\n## Fig. 4 — multi-threaded latency (BORDERLINE cluster, InfiniBand)\n\n")
    series = res["fig4"]
    w("```\n")
    w(format_latency(series))
    w("\n```\n\n")
    by = {s.impl: s for s in series}
    w("- OpenMPI is skipped exactly as in the paper (its "
      "MPI_THREAD_MULTIPLE segfaulted on this test; modeled as "
      "`mt_stable = False`).\n")
    w(f"- PIOMan stays flat ({by['PIOMan'].latency_at(1) / 1000:.1f} -> "
      f"{by['PIOMan'].latency_at(128) / 1000:.1f} us from 1 to 128 threads) — "
      "receivers block on a condition, idle cores run the polling tasks.\n")
    w(f"- MVAPICH-like grows {by['MVAPICH'].latency_at(1) / 1000:.1f} -> "
      f"{by['MVAPICH'].latency_at(128) / 1000:.1f} us — every waiting thread "
      "spin-polls under the global library lock and, past the core count, "
      "queues behind the other threads' scheduling quanta.\n")

    # ---------------------------------------------------------- figs 5-7
    for fig, key, placement, note in (
        ("Fig. 5", "fig5", "sender", "all three implementations overlap (the baselines "
         "via RDMA-read rendezvous: the receiver pulls the body without sender CPU)"),
        ("Fig. 6", "fig6", "receiver", "the paper's headline: only PIOMan overlaps — the "
         "baselines progress nothing while the receiver computes, degrading to "
         "the no-overlap hyperbola Tcomp/(Tcomp+Tcomm)"),
        ("Fig. 7", "fig7", "both", "with both sides computing the baselines inherit the "
         "receiver-side stall; PIOMan keeps the handshake on idle cores"),
    ):
        w(f"\n## {fig} — overlap, computation on {placement} (32 KB and 1 MB)\n\n```\n")
        w(format_overlap(res[key]))
        w("```\n\n")
        w(f"- {note}.\n")

    # ---------------------------------------------------------- ablations
    w("\n## Ablations (design choices)\n\n")
    suite = res["ablations"]

    hier, flat = suite.a1_hier, suite.a1_flat
    w(f"**A1 — hierarchical queues vs one global list (§III).** Affinity "
      f"burst (15 per-core tasks) on kwak: hierarchical "
      f"{hier.mean_burst_ns / 1000:.1f} us vs flat {flat.mean_burst_ns / 1000:.1f} us "
      f"({flat.mean_burst_ns / hier.mean_burst_ns:.2f}x slower); contended lock "
      f"acquisitions {hier.lock_contended} vs {flat.lock_contended}.\n\n")

    spin, mutex = suite.a2_spin, suite.a2_mutex
    w(f"**A2 — spinlock vs blocking mutex (§IV-A).** Same burst through one "
      f"shared queue: spinlock {spin.mean_burst_ns / 1000:.1f} us vs mutex "
      f"{mutex.mean_burst_ns / 1000:.1f} us "
      f"({mutex.mean_burst_ns / spin.mean_burst_ns:.2f}x) — queue-length critical "
      f"sections are shorter than a context switch.\n\n")

    normal, always = suite.a3_checked, suite.a3_always
    w(f"**A3 — Algorithm 2's double-checked locking.** Global-queue "
      f"round-trip on kwak: double-checked {normal.mean_ns / 1000:.2f} us vs "
      f"always-lock {always.mean_ns / 1000:.2f} us "
      f"({always.mean_ns / normal.mean_ns:.2f}x) — empty queues are never "
      f"locked, so scanning stays free of coherence traffic.\n\n")

    locked, lf = suite.a4_locked, suite.a4_lockfree
    w(f"**A4 — lock-free queues (paper future work, §VI).** Global-queue "
      f"round-trip on kwak: spinlock {locked.mean_ns / 1000:.2f} us vs CAS-based "
      f"{lf.mean_ns / 1000:.2f} us ({locked.mean_ns / lf.mean_ns:.2f}x better) — "
      f"supporting the paper's plan to 'use lock-free algorithms to reduce "
      f"contention on task queues'.\n\n")

    fxd, ada = suite.a5_fixed, suite.a5_backoff
    w(f"**A5 — adaptive idle backoff (opt-in `IdleBackoff`, §IV probe "
      f"loop).** Sparse submit trickle on kwak: {fxd.idle_passes:,} empty "
      f"progression passes at the fixed probe period vs {ada.idle_passes:,} "
      f"with exponential backoff "
      f"({fxd.idle_passes / ada.idle_passes:.0f}x fewer), mean wakeup "
      f"latency {fxd.mean_wakeup_ns:.0f} -> {ada.mean_wakeup_ns:.0f} ns — "
      f"doorbells cancel stretched sleeps, so completions barely move.  Off "
      f"by default because stretching probe periods changes the simulated "
      f"world (see PERFORMANCE.md).\n\n")

    cln, flt = suite.a6_clean, suite.a6_faulty
    w(f"**A6 — injected faults (`repro.faults`, docs/FAULTS.md).** The same "
      f"seeded 2-node eager exchange, clean vs under packet loss/reorder "
      f"plus lock-holder preemption: makespan {cln.makespan_ns / 1000:.1f} us "
      f"-> {flt.makespan_ns / 1000:.1f} us "
      f"({flt.makespan_ns / cln.makespan_ns:.2f}x) while surviving "
      f"{flt.drops} drops ({flt.retransmits} timeout retransmits, "
      f"{flt.reorders} reorders) and {flt.lock_preemptions} lock-holder "
      f"preemption windows.  All {flt.completed} messages arrive exactly "
      f"once — the retransmit path and the cancellation-safe queues absorb "
      f"the hostility; the slowdown is its price.\n\n")

    # ---------------------------------------------------------- extensions
    w("\n## Extensions beyond the paper's evaluation\n\n")
    study = res["scalability"]
    w("**Forward scalability** (the §I trend: 'tens or maybe hundreds of "
      "cores per node') — the Table-II workload on kwak-calibrated NUMA "
      "machines of growing size:\n\n```\n")
    w(study.format())
    w("\n```\n\nThe hierarchical per-core/per-chip costs stay flat while "
      "the global queue deteriorates super-linearly — the quantitative "
      "version of §III's scalability argument.\n\n")
    bw = res["bandwidth"]
    w("**Streaming bandwidth** (OSU-suite companion to Fig. 4; the paper "
      "cites the suite as [14]):\n\n```\n")
    w(format_bandwidth(bw))
    w("\n```\n\nAll implementations converge to the modeled ConnectX wire "
      "rate (~1500 MB/s) at 1 MB; PIOMan pays a small task-mechanism "
      "overhead at small sizes, as expected.\n\n")

    # ---------------------------------------------------------- notes
    w("""## Substitution notes

- The machine is a deterministic discrete-event simulation (DESIGN.md §2):
  cores, cache-line transfers, spinlocks, NICs and wires all live on one
  virtual nanosecond clock.  The GIL never touches the measured paths.
- The baselines implement the two design choices the paper attributes
  their behaviour to (global library lock with progress only inside MPI
  calls; RDMA-read rendezvous), not the full MVAPICH2/OpenMPI codebases.
- Wire parameters model ConnectX DDR InfiniBand (~1.5 us / ~1.5 GB/s), so
  1 MB moves in ~700 us — the paper's 0..2000 us x-axis for 1 MB curves
  brackets its communication time the same way.
- Virtual-time measurements are exactly reproducible from the run seed.
""")

    with open(OUT, "w") as f:
        f.write(buf.getvalue())
    print(f"wrote {OUT} ({len(buf.getvalue())} bytes)")


if __name__ == "__main__":
    sys.exit(main())
