"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table & figure.

Run:  python3 tools/make_experiments.py              (takes a few minutes)
      python3 tools/make_experiments.py --jobs 4     (multi-process fan-out)

Every section is an independent seeded simulation.  The runs are the
``repro.par`` job specs of :data:`repro.bench.targets.SPECS`, the table
``python -m repro.bench <artifact>`` reads too, fanned out over worker
processes when ``--jobs > 1``; the rendered markdown is bit-identical to
a serial run either way (results merge back in spec order, seeds live in
the specs), and each fenced block is the one the matching CLI artifact
prints.

This is also the one check of the paper's results.  Before anything is
rendered, :func:`check` asserts the shapes the paper reports on the
results (one ``check_*`` function per result); a failing shape raises
``AssertionError``, so the script exits non-zero and the checkout's
EXPERIMENTS.md keeps its bytes.  CI runs the script and then
``git diff --exit-code EXPERIMENTS.md``: a change that moves a paper
number fails until the file is regenerated on purpose.
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
from repro.bench.overlap import compute_grid  # noqa: E402
from repro.bench.targets import ARTIFACTS, SPECS, render  # noqa: E402
from repro.net.driver import IB_CONNECTX  # noqa: E402
from repro.par import resolve_jobs, run_jobs_strict  # noqa: E402

OUT = os.path.join(ROOT, "EXPERIMENTS.md")

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


# ------------------------------------------------------------------ check
def check_table_borderline(res) -> None:
    """Table I: flat per-core rows with a local/remote split, per-chip
    rows above per-core, and a global queue an order of magnitude above
    the local reference."""
    ref = res.reference_ns()
    # level 1: per-core rows are tight and ordered local <= sibling <= remote
    sibling = res.row_by_label("core#1").mean_ns
    remotes = [res.row_by_label(f"core#{c}").mean_ns for c in range(2, 8)]
    assert ref <= sibling <= min(remotes)
    assert max(remotes) - min(remotes) < 0.15 * ref, "remote rows should be flat"
    # remote overhead is sub-microsecond on this machine (paper: ~100 ns)
    assert max(remotes) - ref < 600
    # level 2: per-chip queues sit between per-core and global
    chips = [r.mean_ns for r in res.per_level["chip"]]
    assert min(chips) >= ref
    # level 3: the global queue collapses (paper: 4.7 us vs 0.77 us)
    assert res.global_row.mean_ns > 2.5 * ref
    assert res.global_row.mean_ns > max(chips)
    # execution spreads over the other cores, none starves completely
    assert len(res.global_row.shares) >= 5


def check_table_kwak(res) -> None:
    """Table II: remote-NUMA rows ~1 us above the local L3 rows, the
    global queue an order of magnitude up (paper: 13.6 us), and a
    NUMA-unbalanced execution distribution on the global queue."""
    ref = res.reference_ns()
    local = [res.row_by_label(f"core#{c}").mean_ns for c in range(4)]
    remote = [res.row_by_label(f"core#{c}").mean_ns for c in range(4, 16)]
    # remote NUMA adds on the order of a microsecond (paper: ~1 us)
    gap = min(remote) - max(local)
    assert 500 < gap < 2_500, f"remote-NUMA gap {gap} outside expected band"
    assert max(remote) - min(remote) < 0.15 * ref, "remote rows should be flat"
    # the global queue collapses hard (paper: 13.6 us vs 0.72 us ~ 19x)
    g = res.global_row.mean_ns
    assert g > 8 * ref
    assert g > max(r.mean_ns for rows in res.per_level.values() for r in rows)
    # unbalanced pickup at the NUMA level (the paper: "most of the tasks
    # are executed by cores located on NUMA node #2"): the busiest node
    # clearly exceeds its uniform expectation
    shares = res.global_row.shares
    node_share = {n: 0.0 for n in range(4)}
    for core, share in shares.items():
        node_share[core // 4] += share
    expected = {n: len([c for c in range(n * 4, n * 4 + 4) if c != 0]) / 15.0
                for n in range(4)}
    skew = max(node_share[n] / expected[n] for n in range(4))
    assert skew > 1.15


def check_growth(r8, r16) -> None:
    """The paper: global-queue overhead 'appears to grow quickly with the
    number of cores' -- kwak (16) costs ~2.9x borderline (8)."""
    ratio = r16.global_row.mean_ns / r8.global_row.mean_ns
    assert ratio > 1.5, "global queue must get worse with more cores"


def check_fig4(series) -> None:
    """Fig. 4: the MVAPICH-like baseline's latency grows with the number
    of receiving threads while PIOMan stays nearly constant, "even when
    this number exceeds the number of CPUs"."""
    by_name = {s.impl: s for s in series}
    pioman = by_name["PIOMan"]
    mvapich = by_name["MVAPICH"]
    assert "OpenMPI" not in by_name, "OpenMPI must be skipped (mt-unstable, as in the paper)"

    counts = [p.threads for p in pioman.points]
    lo, hi = counts[0], counts[-1]
    # PIOMan: flat -- within 40% across the whole sweep, incl. past 8 cores
    base = pioman.latency_at(lo)
    for n in counts:
        assert pioman.latency_at(n) < 1.4 * base, f"PIOMan not flat at {n} threads"
    # MVAPICH: grows, and ends up well above PIOMan
    assert mvapich.latency_at(hi) > 3 * mvapich.latency_at(lo)
    assert mvapich.latency_at(hi) > 2 * pioman.latency_at(hi)


def _grid(fig: str, size_bytes: int) -> list[int]:
    """The compute-time grid ``fig``'s job swept for one message size."""
    npoints = next(s for s in SPECS if s.name == fig).kwargs["npoints"]
    return compute_grid(size_bytes, npoints)


def check_fig5(series) -> None:
    """Fig. 5: *every* implementation overlaps on the sender side -- the
    baselines via their RDMA-read rendezvous, PIOMan via tasks on idle
    cores."""
    for s in series:
        grid = _grid("fig5", s.size_bytes)
        # past the wire time, every implementation reaches a high ratio
        tail = grid[-1]
        assert s.ratio_at(tail) > 0.85, f"{s.impl} fails sender-side overlap"
        # ratio is monotonically non-decreasing along the curve
        ratios = [p.ratio for p in s.points]
        assert all(b >= a - 0.05 for a, b in zip(ratios, ratios[1:]))


def check_fig6(series) -> None:
    """Fig. 6, the paper's headline separation: the baselines do not
    progress the rendezvous while the receiver computes; PIOMan keeps the
    handshake moving on idle cores and saturates."""
    for size in sorted({s.size_bytes for s in series}):
        group = {s.impl: s for s in series if s.size_bytes == size}
        grid = _grid("fig6", size)
        # probe around the communication time, where the gap is widest
        mid = grid[len(grid) // 2]
        pioman = group["PIOMan"].ratio_at(mid)
        for base in ("MVAPICH", "OpenMPI"):
            assert pioman > group[base].ratio_at(mid) + 0.15, (
                f"PIOMan must beat {base} on receiver-side overlap at {size}B"
            )
        # PIOMan saturates near full overlap by the end of the sweep
        assert group["PIOMan"].ratio_at(grid[-1]) > 0.9


def check_fig7(series) -> None:
    """Fig. 7: with both ranks computing, the baselines inherit the
    receiver-side stall while PIOMan overlaps on both sides."""
    for size in sorted({s.size_bytes for s in series}):
        group = {s.impl: s for s in series if s.size_bytes == size}
        grid = _grid("fig7", size)
        tail = grid[-1]
        pioman_tail = group["PIOMan"].ratio_at(tail)
        assert pioman_tail > 0.8
        for base in ("MVAPICH", "OpenMPI"):
            assert pioman_tail >= group[base].ratio_at(tail) - 0.02, (
                f"{base} should not beat PIOMan with computation on both sides"
            )
        # and somewhere along the curve PIOMan opens a clear gap
        gaps = [
            group["PIOMan"].ratio_at(x) - group["MVAPICH"].ratio_at(x)
            for x in grid[1:]
        ]
        assert max(gaps) > 0.1


def check_ablations(suite) -> None:
    """A1-A6: each design choice the paper makes beats its degraded
    variant, CAS queues beat the spinlock on the global queue, idle
    backoff saves passes, and injected faults cost makespan while every
    message still arrives."""
    # A1: one flat global list costs more per burst and contends more
    hier, flat = suite.a1_hier, suite.a1_flat
    assert flat.mean_burst_ns > 1.5 * hier.mean_burst_ns
    assert flat.lock_contended > hier.lock_contended
    # A2: blocking on queue-length critical sections costs context switches
    spin, mutex = suite.a2_spin, suite.a2_mutex
    assert mutex.mean_burst_ns > 1.2 * spin.mean_burst_ns
    # A3: removing the lock-free pre-check can only hurt
    normal, always = suite.a3_checked, suite.a3_always
    assert always.mean_ns > normal.mean_ns
    # A4: CAS beats the spinlock on the contended global queue
    locked, lockfree = suite.a4_locked, suite.a4_lockfree
    assert lockfree.mean_ns < locked.mean_ns
    # A5: with IdleBackoff on, the same sparse workload completes every
    # task with far fewer idle passes (wakeup latency is shown, not gated)
    fixed, adapt = suite.a5_fixed, suite.a5_backoff
    assert fixed.executions == adapt.executions, (fixed, adapt)
    assert adapt.idle_passes < fixed.idle_passes / 2, (fixed, adapt)
    # A6: same seeded exchange, clean vs hostile: every message still
    # arrives exactly once and the makespan pays for the faults
    clean, faulty = suite.a6_clean, suite.a6_faulty
    assert clean.completed == faulty.completed == 16, (clean, faulty)
    assert clean.drops == clean.retransmits == 0, clean
    assert faulty.drops > 0 and faulty.retransmits > 0, faulty
    assert faulty.makespan_ns > clean.makespan_ns, (clean, faulty)


def check_scalability(study) -> None:
    """The paper's section I trend on kwak-calibrated machines of 8-64
    cores: hierarchical per-core/per-chip costs stay put while the global
    queue's blow-up keeps growing with the core count."""
    pts = study.points
    assert [p.ncores for p in pts] == [8, 16, 32, 64]
    # local queues are essentially flat across machine sizes
    locals_ = [p.local_ns for p in pts]
    assert max(locals_) < 1.3 * min(locals_)
    # per-chip cost tracks the chip *width* (racers per L3), not the
    # machine size: the two 4-wide machines match, the two 8-wide match,
    # and every chip queue stays far below the global queue
    chips = [p.chip_ns for p in pts]
    assert abs(chips[0] - chips[1]) < 0.3 * chips[0]   # both 4-wide
    assert abs(chips[2] - chips[3]) < 0.3 * chips[2]   # both 8-wide
    for p in pts:
        assert p.chip_ns < 0.5 * p.global_ns
    # the global queue keeps deteriorating with the core count
    assert pts[-1].global_ns > 2.5 * pts[0].global_ns
    assert pts[-1].global_blowup > pts[0].global_blowup
    # monotone growth along the sweep (some tolerance for seed noise)
    for a, b in zip(pts, pts[1:]):
        assert b.global_ns > 0.9 * a.global_ns


def check_bandwidth(series) -> None:
    """OSU-style streaming bandwidth: it grows with message size, and at
    1 MB every implementation approaches the ConnectX wire rate."""
    wire_mb_s = IB_CONNECTX.bytes_per_us  # B/us == MB/s
    for s in series:
        rates = [p.mb_per_s for p in s.points]
        # monotone growth with size (small tolerance)
        for a, b in zip(rates, rates[1:]):
            assert b > 0.8 * a, f"{s.impl}: bandwidth dropped {a}->{b}"
        # large messages approach the wire rate
        assert rates[-1] > 0.75 * wire_mb_s, f"{s.impl} too far from wire rate"
        assert rates[-1] < 1.05 * wire_mb_s, f"{s.impl} exceeds the wire"
        # small messages are overhead-bound, clearly under the wire rate
        assert rates[0] < 0.8 * wire_mb_s
        assert rates[0] < rates[-1]


def check(res: dict) -> None:
    """Assert the paper's shapes on every result; the first that fails
    raises ``AssertionError``."""
    check_table_borderline(res["table_borderline"])
    check_table_kwak(res["table_kwak"])
    check_growth(res["growth_borderline"], res["growth_kwak"])
    check_fig4(res["fig4"])
    check_fig5(res["fig5"])
    check_fig6(res["fig6"])
    check_fig7(res["fig7"])
    check_ablations(res["ablations"])
    check_scalability(res["scalability"])
    check_bandwidth(res["bandwidth"])


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
    if not __debug__:
        sys.exit("make_experiments.py checks the paper's shapes with assert; "
                 "run it without -O")

    res = dict(
        zip([s.name for s in SPECS], run_jobs_strict(SPECS, jobs=args.jobs))
    )
    check(res)

    buf = io.StringIO()
    w = buf.write
    w(HEADER)

    # ---------------------------------------------------------- tables
    for name, artifact in (
        ("Table I — borderline (4-way dual-core, 8 cores)", "table1"),
        ("Table II — kwak (4-way quad-core, 16 cores, NUMA)", "table2"),
    ):
        result = res[ARTIFACTS[artifact][0]]
        table = result.machine
        w(f"\n## {name}\n\n```\n")
        w(render(artifact, result))
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
    w(render("fig4", series))
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
        w(render(key, res[key]))
        w("\n```\n\n")
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
    w(render("scalability", study))
    w("\n```\n\nThe hierarchical per-core/per-chip costs stay flat while "
      "the global queue deteriorates super-linearly — the quantitative "
      "version of §III's scalability argument.\n\n")
    bw = res["bandwidth"]
    w("**Streaming bandwidth** (OSU-suite companion to Fig. 4; the paper "
      "cites the suite as [14]):\n\n```\n")
    w(render("bandwidth", bw))
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
