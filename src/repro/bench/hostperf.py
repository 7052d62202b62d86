"""Identity corpus (``python -m repro.bench perf``): seeded fingerprints.

Everything else in :mod:`repro.bench` reports *virtual* nanoseconds, the
numbers the paper reports.  This module pins what the simulator
*computes* on a fixed, seeded 13-scenario matrix: each scenario returns
a **fingerprint** of its simulated outcome (events fired, final virtual
time, key scheduler, fault and shard counters).  An optimization that
changes a fingerprint changed the simulation, not just its speed.
``BENCH_host_perf.json`` records the fingerprints, and
``perf --check BENCH_host_perf.json`` reruns the matrix and fails on any
counter that moved.  Host speed is measured elsewhere, by the repo
benchmark (``benchmark/run.py``) and its paired A/B (``tools/ab.py``).

The matrix spans the simulator's distinct paths:

* ``micro_local`` / ``micro_global`` / ``scal_numa32`` — Table-I-style
  submit→``piom_wait`` round trips on a per-core queue, on the global
  queue, and on the global queue of a 32-core NUMA machine;
* ``latency_mt`` — a fig4-style multi-threaded ping-pong over the full
  cluster stack (NICs, nmad, MPI, doorbells);
* ``cluster_ring`` — a 4-node ring exchange (fabric + multi-node
  scheduling);
* ``idle_spin`` / ``idle_spin_nosummary`` — an idle-heavy spin-polling
  steady state on a deep chiplet machine with the occupancy-summary fast
  path on and off: the two fingerprints must agree on every counter but
  the fast path's own ``summary_hits``;
* ``leap_on`` / ``leap_off`` — the same idle-heavy steady state with the
  quiescence leap (:mod:`repro.core.leap`) pinned on and off: the two
  fingerprints must be fully identical (the leap replays every counter);
* ``fault_net`` / ``fault_slowcore`` / ``fault_storm`` — the same stack
  under :mod:`repro.faults` injection (packet loss + reorder with
  timeout retransmit, straggler cores, cancellation storms with
  lock-holder preemption): their fault counters live in the fingerprints;
* ``cluster_shard2`` — a generated workload run whole and split into two
  serial shards (:mod:`repro.cluster.shard`), whose fingerprints must be
  identical.

Every scenario carries its own seed in its :class:`repro.par.JobSpec`,
so ``--jobs N`` must reproduce the record exactly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import Engine

#: the matrix's root seed; each scenario derives its own from it
SEED = 7
#: the committed record ``perf`` writes by default and CI checks against
RECORD = "BENCH_host_perf.json"


@dataclass
class ScenarioResult:
    """One scenario's simulated outcome."""

    name: str
    fingerprint: dict

    @property
    def virtual_ns(self) -> int:
        return self.fingerprint["virtual_ns"]


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def _submit_wait_scenario(
    name: str,
    machine: str,
    cpuset: str,
    reps: int,
    seed: int,
    horizon_ns: int = 1_000_000,
    slow_cores: tuple = (),
    factor: float = 1.0,
) -> ScenarioResult:
    """Table-I-style submit→``piom_wait`` loop on one queue of the hierarchy.

    ``cpuset="local"`` pins every task to core 0, which both submits and
    runs them (active wait); ``"global"`` lets every core race for them
    while the submitter spins on the completion word.  ``machine`` names a
    :data:`repro.topology.builder.MACHINES` builder, or ``"numa32"`` for
    the scalability sweep's 4x8-core NUMA rung.  ``slow_cores`` installs a
    fault plan under which those cores run ``factor`` times slower (the
    injector's per-core skew of the scheduler's cost accounting).  The run
    lasts ``reps * horizon_ns`` of virtual time at most.
    """
    from repro.core.manager import PIOMan
    from repro.core.progress import piom_wait
    from repro.core.task import LTask
    from repro.sim.rng import Rng
    from repro.threads.scheduler import Scheduler
    from repro.topology.builder import MACHINES
    from repro.topology.cpuset import CpuSet

    if machine == "numa32":
        from repro.bench.scalability import scaled_machine

        mach = scaled_machine(4, 8)
    else:
        mach = MACHINES[machine]()
    engine = Engine()
    sched = Scheduler(mach, engine, rng=Rng(seed))
    pioman = PIOMan(mach, engine, sched)
    injector = None
    if slow_cores:
        from repro.faults.inject import FaultInjector
        from repro.faults.plan import FaultPlan, SlowCores

        plan = FaultPlan(seed=seed, slow_cores=SlowCores(cores=tuple(slow_cores),
                                                         factor=factor))
        injector = FaultInjector(plan).install(scheduler=sched, pioman=pioman)
    cores = CpuSet.single(0) if cpuset == "local" else mach.all_cores()
    wait_mode = "active" if cpuset == "local" else "spin"

    def submitter(ctx):
        for i in range(reps):
            task = LTask(None, cpuset=cores, name=f"{name}{i}")
            yield from pioman.submit(0, task)
            yield from piom_wait(pioman, 0, task, mode=wait_mode)

    sched.spawn(submitter, 0, name=f"{name}-submitter")
    engine.run(until=reps * horizon_ns)
    st = pioman.stats
    if st.tasks_completed < reps:
        raise RuntimeError(f"{name}: stalled at {st.tasks_completed}/{reps}")
    fingerprint = {
        "fired": engine.fired,
        "virtual_ns": engine.now,
        "submits": st.submits,
        "executions": st.executions,
        "schedule_passes": st.schedule_passes,
    }
    if injector is not None:
        fingerprint["slow_cores"] = injector.stats.slow_cores
    return ScenarioResult(name, fingerprint)


def _latency_scenario(name: str, nthreads: int, iters: int, seed: int) -> ScenarioResult:
    """fig4-style multi-threaded ping-pong over the full cluster stack."""
    from repro.cluster.cluster import Cluster
    from repro.mpi import MadMPI

    cluster = Cluster(2, seed=seed)
    mpi = MadMPI(cluster)
    c_send = mpi.comm(0)
    c_recv = mpi.comm(1)
    ncores = cluster.nodes[1].machine.ncores
    samples: list[int] = []

    def receiver_body(tid: int):
        def body(ctx):
            for _ in range(iters):
                yield from c_recv.recv(ctx.core_id, 0, tid)
                yield from c_recv.send(ctx.core_id, 0, tid, 4, payload=b"r")

        return body

    def sender_body(ctx):
        for _ in range(iters):
            for tid in range(nthreads):
                t0 = ctx.now
                yield from c_send.send(ctx.core_id, 1, tid, 4, payload=b"p")
                yield from c_send.recv(ctx.core_id, 1, tid)
                samples.append(ctx.now - t0)

    for tid in range(nthreads):
        cluster.nodes[1].scheduler.spawn(
            receiver_body(tid), tid % ncores, name=f"recv{tid}"
        )
    cluster.nodes[0].scheduler.spawn(sender_body, 0, name="sender")
    cluster.run(until=iters * nthreads * 3_000_000 + 50_000_000)
    if len(samples) < iters * nthreads:
        raise RuntimeError(f"{name}: stalled at {len(samples)} round-trips")
    return ScenarioResult(name, {
        "fired": cluster.engine.fired,
        "virtual_ns": cluster.engine.now,
        "round_trips": len(samples),
        "sum_latency_ns": sum(samples),
    })


def _cluster_ring_scenario(name: str, nnodes: int, iters: int, seed: int) -> ScenarioResult:
    """Multi-node smoke: every node sends around a ring simultaneously."""
    from repro.cluster.cluster import Cluster
    from repro.mpi import MadMPI

    cluster = Cluster(nnodes, seed=seed)
    mpi = MadMPI(cluster)
    comms = [mpi.comm(i) for i in range(nnodes)]
    done = [0] * nnodes

    def ring_body(rank: int):
        nxt = (rank + 1) % nnodes
        prev = (rank - 1) % nnodes

        def body(ctx):
            for it in range(iters):
                yield from comms[rank].send(
                    ctx.core_id, nxt, it, 1024, payload=b"x"
                )
                yield from comms[rank].recv(ctx.core_id, prev, it)
                done[rank] += 1

        return body

    for rank in range(nnodes):
        cluster.nodes[rank].scheduler.spawn(ring_body(rank), 0, name=f"ring{rank}")
    cluster.run(until=iters * nnodes * 5_000_000 + 50_000_000)
    if done != [iters] * nnodes:
        raise RuntimeError(f"{name}: ring stalled ({done})")
    return ScenarioResult(name, {
        "fired": cluster.engine.fired,
        "virtual_ns": cluster.engine.now,
        "exchanges": sum(done),
    })


def _idle_spin_scenario(
    name: str,
    duration_us: int,
    gap_us: int,
    seed: int,
    fastpath: bool = True,
    leap: bool = True,
) -> ScenarioResult:
    """Idle-heavy spin-polling on a deep chiplet machine (24 cores).

    One driver core submits a small single-core task every ``gap_us``
    while the other 23 cores spin-poll an almost-always-empty hierarchy —
    the steady-state shape of a communication library between messages,
    and the workload the occupancy-summary fast path exists for.  With
    ``fastpath=False`` the same simulation runs with the summary disabled,
    and its fingerprint (minus ``summary_hits``) must match exactly.

    ``leap`` turns the quiescence leap (:mod:`repro.core.leap`) on or
    off; the leap_on/leap_off pair uses it to run the same simulation
    both ways, and their fingerprints must be **fully** identical — the
    leap replays every counter, including ``summary_hits``.
    """
    from repro.core.manager import PIOMan
    from repro.core.task import LTask
    from repro.sim.rng import Rng
    from repro.threads.instructions import Compute
    from repro.threads.scheduler import Scheduler
    from repro.topology.builder import ccx_machine
    from repro.topology.cpuset import CpuSet

    duration = duration_us * 1_000
    gap = gap_us * 1_000
    machine = ccx_machine()
    engine = Engine()
    sched = Scheduler(machine, engine, rng=Rng(seed), true_spin=True)
    pioman = PIOMan(
        machine, engine, sched, summary_fastpath=fastpath, quiescence_leap=leap
    )
    ncores = machine.ncores

    def driver(ctx):
        i = 0
        while engine.now < duration:
            yield Compute(gap)
            task = LTask(
                None,
                cpuset=CpuSet.single(1 + (5 * i + 3) % (ncores - 1)),
                name=f"idle{i}",
            )
            yield from pioman.submit(0, task)
            i += 1

    sched.spawn(driver, 0, name="idle-driver")
    engine.run(until=duration)
    if pioman.stats.tasks_completed == 0:
        raise RuntimeError(f"{name}: no task ever completed")
    return ScenarioResult(name, {
        "fired": engine.fired,
        "virtual_ns": engine.now,
        "submits": pioman.stats.submits,
        "executions": pioman.stats.executions,
        "schedule_passes": pioman.stats.schedule_passes,
        "summary_hits": pioman.hierarchy.summary_stats.summary_hits,
    })


def _fault_net_scenario(
    name: str, msgs: int, size: int, drop_p: float, reorder_p: float, seed: int
) -> ScenarioResult:
    """Eager 2-node exchange under seeded packet loss + reordering.

    Every payload stays below the rendezvous threshold so it crosses the
    wire through ``Nic.post_send`` — the path the injector's drop/reorder
    hooks and the driver's timeout retransmit cover.  The fingerprint
    pins the fault counters themselves: a change in when (or whether) a
    frame is dropped is a semantic change, not noise.
    """
    from repro.cluster.cluster import Cluster
    from repro.faults.plan import FaultPlan, NetFaults
    from repro.mpi import MadMPI

    plan = FaultPlan(seed=seed, net=NetFaults(drop_p=drop_p, reorder_p=reorder_p))
    cluster = Cluster(2, seed=seed, faults=plan)
    mpi = MadMPI(cluster)
    c0, c1 = mpi.comm(0), mpi.comm(1)
    done = [0, 0]

    def sender(ctx):
        for i in range(msgs):
            yield from c0.send(ctx.core_id, 1, i, size, payload=b"x")
            done[0] += 1

    def receiver(ctx):
        for i in range(msgs):
            yield from c1.recv(ctx.core_id, 0, i)
            done[1] += 1

    cluster.nodes[0].scheduler.spawn(sender, 0, name="fault-send")
    cluster.nodes[1].scheduler.spawn(receiver, 0, name="fault-recv")
    cluster.run(until=msgs * 10_000_000 + 100_000_000)
    if done != [msgs, msgs]:
        raise RuntimeError(f"{name}: stalled at {done}/{msgs}")
    stats = [fi.stats for fi in cluster.fault_injectors.values()]
    return ScenarioResult(name, {
        "fired": cluster.engine.fired,
        "virtual_ns": cluster.engine.now,
        "messages": sum(done),
        "drops": sum(s.drops for s in stats),
        "retransmits": sum(s.retransmits for s in stats),
        "reorders": sum(s.reorders for s in stats),
    })


def _fault_storm_scenario(
    name: str, decoys: int, gap_us: int, seed: int
) -> ScenarioResult:
    """Cancellation storm + lock-holder preemption on a spin-polling host.

    A driver pins decoy tasks to its own core so they linger in the queue
    (spin-polling neighbours can't steal them), while storm ticks pick
    queued victims and fire ``PIOMan.cancel`` half an interval later —
    racing in-flight execution on purpose — and every queue-lock grant
    may eat an injected descheduling window.  The fingerprint pins the
    submitted = executed + cancelled accounting.
    """
    from repro.core.manager import PIOMan
    from repro.core.task import LTask
    from repro.faults.inject import FaultInjector
    from repro.faults.plan import CancelStorm, FaultPlan, LockPreemption
    from repro.sim.rng import Rng
    from repro.threads.instructions import Compute
    from repro.threads.scheduler import Scheduler
    from repro.topology.builder import ccx_machine
    from repro.topology.cpuset import CpuSet

    gap = gap_us * 1_000
    machine = ccx_machine()
    engine = Engine()
    sched = Scheduler(machine, engine, rng=Rng(seed), true_spin=True)
    pioman = PIOMan(machine, engine, sched)
    plan = FaultPlan(
        seed=seed,
        # the double-checked fallback keeps empty queues lock-free, so
        # grants are scarce — a high p is needed to see preemptions at all
        lock_preemption=LockPreemption(p=0.25, window_ns=30_000),
        cancel_storm=CancelStorm(
            count=max(2, decoys // 4), interval_ns=3 * gap, start_ns=gap
        ),
    )
    injector = FaultInjector(plan).install(scheduler=sched, pioman=pioman)

    def driver(ctx):
        for i in range(decoys):
            yield Compute(gap)
            task = LTask(None, cpuset=CpuSet.single(0), name=f"decoy{i}")
            yield from pioman.submit(0, task)

    sched.spawn(driver, 0, name="storm-driver")
    engine.run(until=decoys * gap + 50_000_000)
    st = pioman.stats
    fs = injector.stats
    if st.executions + fs.cancel_hits < st.submits:
        raise RuntimeError(
            f"{name}: lost tasks ({st.submits} submitted, "
            f"{st.executions} ran, {fs.cancel_hits} cancelled)"
        )
    return ScenarioResult(name, {
        "fired": engine.fired,
        "virtual_ns": engine.now,
        "submits": st.submits,
        "executions": st.executions,
        "cancel_attempts": fs.cancel_attempts,
        "cancel_hits": fs.cancel_hits,
        "lock_preemptions": fs.lock_preemptions,
    })


def _cluster_sharded_scenario(
    name: str, nnodes: int, reqs: int, seed: int
) -> ScenarioResult:
    """Compact sharded-cluster run: the conservative-lookahead shard
    protocol (:mod:`repro.cluster.shard`) on a generated workload.

    Runs the same scenario single-process (``nshards=1``) and split in
    two (``nshards=2``), both in serial mode, so a ``--jobs`` worker that
    runs it forks nothing of its own.  The two fingerprints must be
    identical (the shard identity contract).
    """
    from repro.cluster.shard import run_sharded
    from repro.cluster.workload import WorkloadSpec, verify_completion

    spec = WorkloadSpec(
        nnodes=nnodes, requests_per_node=reqs, pattern="ring",
        arrival="closed", mean_gap_ns=20_000, think_ns=5_000,
        rdv_fraction=0.25, seed=seed,
    )
    kwargs = {"spec": spec, "machine": "smp1x2", "trace": False}
    builder = "repro.cluster.workload:build_workload_cluster"
    r1 = run_sharded(builder, kwargs, nshards=1, serial=True)
    r2 = run_sharded(builder, kwargs, nshards=2, serial=True)
    if r1.fingerprint() != r2.fingerprint():
        raise RuntimeError(
            f"{name}: sharded fingerprint diverged from single-process "
            f"({r2.fingerprint()[:16]}… vs {r1.fingerprint()[:16]}…)"
        )
    verify_completion(r1.snapshot, spec)
    return ScenarioResult(name, {
        "fired": r1.fired,
        "virtual_ns": r1.virtual_ns,
        "windows_2shard": r2.windows,
        "run_fingerprint": r1.fingerprint(),
        "identical": True,
    })


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------
def matrix_specs() -> list:
    """The fixed 13-scenario matrix as :class:`repro.par.JobSpec` jobs.

    Each scenario carries its own seed, derived from :data:`SEED`, in the
    spec, so its simulated outcome (the fingerprint) is fixed before any
    worker runs — identical serially, in parallel, and under any
    completion order.
    """
    from repro.par import JobSpec

    mod = "repro.bench.hostperf"
    seed = SEED

    def job(name: str, body: str, **kwargs) -> JobSpec:
        return JobSpec(name=name, target=f"{mod}:_{body}_scenario",
                       kwargs=dict(name=name, **kwargs))

    return [
        job("micro_local", "submit_wait", machine="borderline", cpuset="local",
            reps=150, seed=seed),
        job("micro_global", "submit_wait", machine="borderline", cpuset="global",
            reps=100, seed=seed + 1),
        job("latency_mt", "latency", nthreads=8, iters=2, seed=seed + 2),
        job("scal_numa32", "submit_wait", machine="numa32", cpuset="global",
            reps=30, seed=seed + 3),
        job("cluster_ring", "cluster_ring", nnodes=4, iters=4, seed=seed + 4),
        # idle_spin / idle_spin_nosummary share a seed on purpose: the SAME
        # simulation with the occupancy-summary fast path on/off, so their
        # fingerprints (minus summary_hits) must be identical
        job("idle_spin", "idle_spin", duration_us=75, gap_us=20,
            seed=seed + 5, fastpath=True),
        job("idle_spin_nosummary", "idle_spin", duration_us=75, gap_us=20,
            seed=seed + 5, fastpath=False),
        # leap_on / leap_off share a seed on purpose: the SAME simulation
        # with the quiescence leap on and off, whose fingerprints must be
        # FULLY identical (the leap replays every counter, summary_hits
        # included)
        job("leap_on", "idle_spin", duration_us=150, gap_us=25,
            seed=seed + 10, fastpath=True, leap=True),
        job("leap_off", "idle_spin", duration_us=150, gap_us=25,
            seed=seed + 10, fastpath=True, leap=False),
        # hostile worlds (repro.faults): the fault counters are in the
        # fingerprint, so a change in what gets dropped/preempted/cancelled
        # is a diff
        job("fault_net", "fault_net", msgs=6, size=4096, drop_p=0.12,
            reorder_p=0.2, seed=seed + 6),
        job("fault_slowcore", "submit_wait", machine="borderline", cpuset="global",
            reps=40, seed=seed + 7, horizon_ns=2_000_000, slow_cores=(1, 3),
            factor=3.0),
        job("fault_storm", "fault_storm", decoys=10, gap_us=20, seed=seed + 8),
        # the shard protocol: a generated workload run whole and split in
        # two (serial shards), fingerprints required identical
        job("cluster_shard2", "cluster_sharded", nnodes=6, reqs=2, seed=seed + 11),
    ]


def run_host_perf(
    *, jobs: int = 1, timeout_s: Optional[float] = None
) -> list[ScenarioResult]:
    """Run the matrix once; ``jobs > 1`` fans it out over ``repro.par``
    worker processes, with bit-identical fingerprints."""
    from repro.par import run_jobs_strict

    return list(run_jobs_strict(matrix_specs(), jobs=jobs, timeout_s=timeout_s))


def report_to_jsonable(results: list[ScenarioResult]) -> dict:
    """The record: fingerprints only, so a rerun is byte-identical."""
    return {
        "meta": {"kind": "host_perf", "seed": SEED},
        "scenarios": [{"name": r.name, "fingerprint": r.fingerprint} for r in results],
    }


def format_host_perf(results: list[ScenarioResult]) -> str:
    lines = [
        "Identity corpus (seeded fingerprints)",
        f"{'scenario':<20}{'fired':>10}{'virtual ms':>12}{'counters':>10}",
    ]
    for r in results:
        fp = r.fingerprint
        lines.append(
            f"{r.name:<20}{fp['fired']:>10}{fp['virtual_ns'] / 1e6:>12.3f}{len(fp):>10}"
        )
    return "\n".join(lines)


def check_fingerprints(doc: dict, record: dict) -> list[str]:
    """Every difference between two perf documents, one line per counter.

    A scenario present on only one side is a difference too: a renamed
    or dropped scenario cannot slip past the check.
    """
    new = {s["name"]: s["fingerprint"] for s in doc["scenarios"]}
    old = {s["name"]: s["fingerprint"] for s in record["scenarios"]}
    failures = [f"{name}: missing from the record" for name in new if name not in old]
    failures += [f"{name}: in the record but not run" for name in old if name not in new]
    for name in new.keys() & old.keys():
        a, b = old[name], new[name]
        failures += [
            f"{name}: {key} {a.get(key)!r} -> {b.get(key)!r}"
            for key in sorted(a.keys() | b.keys())
            if a.get(key) != b.get(key)
        ]
    return sorted(failures)


def main(argv: Optional[list[str]] = None) -> int:
    """The ``perf`` subcommand body (called from :mod:`repro.bench.cli`)."""
    import argparse
    import os

    from repro.bench.cli import out_path, positive_seconds
    from repro.par import resolve_jobs

    ap = argparse.ArgumentParser(
        prog="repro-bench perf",
        description="Identity corpus: run the seeded 13-scenario matrix and "
        f"record its fingerprints ({RECORD}), or check them against a record. "
        "Host speed is measured by benchmark/run.py and tools/ab.py.",
    )
    ap.add_argument("--out", metavar="PATH", type=out_path, default=None,
                    help=f"write the fingerprints to PATH (default ./{RECORD}, "
                    "or nothing with --check)")
    ap.add_argument("--jobs", type=resolve_jobs, default=1, metavar="N",
                    help="run the scenarios over N worker processes "
                    "('auto' or 0 = every CPU; default 1 = serial; the "
                    "fingerprints are identical either way)")
    ap.add_argument("--job-timeout", type=positive_seconds, default=None, metavar="S",
                    help="per-scenario wall-clock limit in seconds when "
                    "using --jobs")
    ap.add_argument("--check", metavar="PATH", default=None,
                    help="compare every fingerprint with the record at PATH "
                    "and exit 1 on any difference")
    args = ap.parse_args(argv)
    out = args.out if args.out or args.check else RECORD
    if out and args.check and os.path.realpath(out) == os.path.realpath(args.check):
        ap.error("--out would overwrite the record given to --check")
    record = None
    if args.check:
        try:
            with open(args.check) as fh:
                record = json.load(fh)
        except (OSError, ValueError) as exc:
            ap.error(f"--check: cannot read {args.check}: {exc}")

    results = run_host_perf(jobs=args.jobs, timeout_s=args.job_timeout)
    doc = report_to_jsonable(results)
    print(format_host_perf(results))
    if out:
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"\nwrote {out}")
    if record is None:
        return 0
    failures = check_fingerprints(doc, record)
    if failures:
        for f in failures:
            print(f"FINGERPRINT MISMATCH: {f}", file=sys.stderr)
        from repro.obs.diff import diff_docs, format_diff

        print(f"\nblame (bench diff {args.check} vs this run):")
        print(format_diff(diff_docs(record, doc)))
        return 1
    print(f"perf check ok: {len(results)} scenarios identical to {args.check}")
    return 0
