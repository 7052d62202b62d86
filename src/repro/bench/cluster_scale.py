"""Cluster-scale sharding bench (``python -m repro.bench cluster-scale``).

Runs one :class:`~repro.cluster.workload.WorkloadSpec` scenario across a
curve of shard counts through :func:`~repro.cluster.shard.run_sharded`
and reports, per shard count:

* **identity** — the run's fingerprint (merged metric snapshot + final
  virtual time + events fired) must equal the single-process reference's
  (``nshards=1``).  A mismatch is an exit-code failure, never a warning:
  the shard protocol's whole contract is that partitioning is invisible.
* **throughput** — aggregate simulator events per wall-clock second, the
  number sharding exists to scale.  Speedup is bounded by the cores the
  host actually grants, so the committed ``BENCH_cluster_scale.json``
  stamps ``host_cpus`` next to the curve (a 1-CPU container timeshares
  forked shards and honestly reports ~1x).
* **peak RSS per forked shard** — partitioning the world also
  partitions its memory; the per-shard high-water mark is what lets N
  shards of a 100+-node world fit where one process would not.  Shard 0
  runs in this process, so its entry is 0 (its memory is this
  process's own peak);
* **shard telemetry** — each shard's summed in-window compute seconds
  and the coordinator's summed wait for forked replies after its own
  window: which shard straggled, and how long the barrier cost.  Host
  diagnostics, never part of the fingerprint.

The scenario completes or the bench fails: the merged snapshot must show
every generated request issued *and* served
(:func:`~repro.cluster.workload.verify_completion`) — a stalled run
cannot pass by being fast.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict
from typing import Optional, Sequence

from repro.cluster.shard import ShardRunResult, run_sharded
from repro.cluster.workload import WorkloadSpec, verify_completion

#: the builder every curve point runs (module-level, so forked shard
#: workers can resolve it by name)
BUILDER = "repro.cluster.workload:build_workload_cluster"


def default_spec(*, nnodes: int = 120, seed: int = 23) -> WorkloadSpec:
    """The committed large scenario: 100+ nodes of bursty open-loop
    traffic with a hotspot and periodic collectives — every generator
    subsystem exercised at once."""
    return WorkloadSpec(
        nnodes=nnodes,
        requests_per_node=8,
        pattern="hotspot",
        arrival="open",
        mean_gap_ns=150_000,
        size_bytes=1024,
        rdv_fraction=0.1,
        burst_len=4,
        diurnal_period=8,
        collective_every=4,
        window=4,
        seed=seed,
    )


def run_cluster_scale(
    spec: WorkloadSpec,
    *,
    shard_counts: Sequence[int] = (1, 2, 4),
    serial: bool = False,
    machine: str = "smp1x2",
    timeout_s: Optional[float] = 1800.0,
) -> dict:
    """Run the scenario at every shard count; return the jsonable report.

    Raises :class:`RuntimeError` on a fingerprint mismatch against the
    ``nshards=1`` reference or an incomplete workload — identity and
    completion are correctness, not metrics.
    """
    counts = sorted(set(int(k) for k in shard_counts))
    if not counts or counts[0] < 1:
        raise ValueError(f"bad shard counts {shard_counts}")
    kwargs = {"spec": spec, "machine": machine, "trace": False}
    points: list[dict] = []
    results: dict[int, ShardRunResult] = {}
    for k in counts:
        result = run_sharded(
            BUILDER, kwargs, nshards=k, serial=serial, timeout_s=timeout_s
        )
        verify_completion(result.snapshot, spec)
        results[k] = result
        points.append(
            {
                "nshards": k,
                "serial": result.serial,
                "fingerprint": result.fingerprint(),
                "fired": result.fired,
                "windows": result.windows,
                "virtual_ns": result.virtual_ns,
                "wall_ms": round(result.wall_ms, 3),
                "events_per_sec": round(result.events_per_sec, 1),
                "lookahead_ns": result.lookahead_ns,
                "maxrss_kb_per_shard": result.maxrss_kb,
                "shard_fired": result.shard_fired,
                "shard_compute_s": [round(c, 3) for c in result.shard_compute_s],
                "coordinator_wait_s": round(result.coordinator_wait_s, 3),
            }
        )
    reference = results[counts[0]] if counts[0] == 1 else None
    mismatches: list[str] = []
    if reference is not None:
        ref_fp = reference.fingerprint()
        for k in counts[1:]:
            if results[k].fingerprint() != ref_fp:
                mismatches.append(
                    f"nshards={k}: fingerprint {results[k].fingerprint()[:16]}… "
                    f"!= single-process {ref_fp[:16]}…"
                )
    base_eps = points[0]["events_per_sec"]
    for point in points:
        point["speedup_vs_first"] = (
            round(point["events_per_sec"] / base_eps, 3) if base_eps else 0.0
        )
    report = {
        "meta": {
            "kind": "cluster_scale",
            "builder": BUILDER,
            "machine": machine,
            "serial": serial,
            "host_cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "spec": asdict(spec),
        "total_requests": spec.total_requests(),
        "identical": not mismatches,
        "mismatches": mismatches,
        "points": points,
    }
    if mismatches:
        raise RuntimeError(
            "sharded fingerprints diverged from the single-process "
            "reference:\n  " + "\n  ".join(mismatches)
        )
    return report


def format_cluster_scale(report: dict) -> str:
    spec = report["spec"]
    lines = [
        f"Cluster scale: {spec['nnodes']} nodes, "
        f"{report['total_requests']} requests "
        f"({spec['pattern']}/{spec['arrival']}, seed {spec['seed']}), "
        f"host_cpus={report['meta']['host_cpus']}",
        f"{'shards':>7}{'fired':>12}{'windows':>9}{'wall ms':>10}"
        f"{'events/s':>11}{'speedup':>9}{'max compute s':>14}{'wait s':>8}"
        f"{'rss/fork MB':>13}  fingerprint",
    ]
    for p in report["points"]:
        rss = max(p["maxrss_kb_per_shard"]) / 1024
        lines.append(
            f"{p['nshards']:>7}{p['fired']:>12}{p['windows']:>9}"
            f"{p['wall_ms']:>10.1f}{p['events_per_sec']:>11.0f}"
            f"{p['speedup_vs_first']:>8.2f}x{max(p['shard_compute_s']):>14.2f}"
            f"{p['coordinator_wait_s']:>8.2f}{rss:>13.1f}  "
            f"{p['fingerprint'][:16]}…"
        )
    lines.append(
        "identity: "
        + ("all shard counts bit-identical" if report["identical"] else "DIVERGED")
    )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    """The ``cluster-scale`` subcommand (called from :mod:`repro.bench.cli`)."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="repro-bench cluster-scale",
        description="Sharded cluster scaling curve: run one generated "
        "workload at several shard counts, gate on fingerprint identity, "
        "write BENCH_cluster_scale.json.",
    )
    ap.add_argument("--out", metavar="PATH", default="BENCH_cluster_scale.json",
                    help="where to write the JSON report "
                    "(default ./BENCH_cluster_scale.json; '-' skips writing)")
    ap.add_argument("--nodes", type=int, default=120,
                    help="simulated node count (default 120)")
    ap.add_argument("--requests", type=int, default=None, metavar="N",
                    help="requests per node (default: the spec's 8)")
    ap.add_argument("--shards", default="1,2,4",
                    help="comma-separated shard counts (default 1,2,4; "
                    "1 is the identity reference and is always implied)")
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--serial", action="store_true",
                    help="keep every shard in-process (identity check "
                    "without forking; no speedup by construction)")
    ap.add_argument("--machine", default="smp1x2",
                    help="per-node machine (default smp1x2)")
    ap.add_argument("--timeout", type=float, default=1800.0, metavar="S",
                    help="per-window reply timeout per forked shard "
                    "(default 1800)")
    args = ap.parse_args(argv)
    counts = sorted({1} | {int(x) for x in args.shards.split(",") if x})
    spec = default_spec(nnodes=args.nodes, seed=args.seed)
    if args.requests is not None:
        from dataclasses import replace

        spec = replace(spec, requests_per_node=args.requests)
    try:
        report = run_cluster_scale(
            spec,
            shard_counts=counts,
            serial=args.serial,
            machine=args.machine,
            timeout_s=args.timeout,
        )
    except RuntimeError as exc:
        print(f"cluster-scale FAILED: {exc}", file=sys.stderr)
        return 1
    print(format_cluster_scale(report))
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
        print(f"\nwrote {args.out}")
    return 0
