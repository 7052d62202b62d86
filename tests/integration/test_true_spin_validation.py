"""Doorbell-model validation against literal spin-polling.

DESIGN.md §2 claims the parked-idle + doorbell model is an
event-efficient equivalent of continuous spin-polling (``true_spin``).
This file runs the same worlds both ways and bounds the ratio
``true_spin`` / doorbell of what a user of each world measures:

* the uncontended borderline core row, within the probe-cycle
  quantization;
* the contended Table I/II rows, on the CPU sets ``run_task_microbench``
  builds (borderline chip#0, chip#1 and global; kwak cache#0, cache#1
  and global): mean steady round trip;
* the benchmark's ``idle_poll`` shape (ccx24, one single-core task every
  20 µs while every other core polls): mean submit→complete lag;
* the benchmark's ``pioman_busy`` shape (kwak, 4 closed-loop
  submitters): makespan.

Every tolerance sits next to the ratios it was measured from.  The
worlds are built here, the way the benchmark and ``measure_queue`` build
them, with ``true_spin`` as the one difference; no product signature
takes it.
There is no cluster shape: a cluster's nodes always park on doorbells.
"""

import pytest

from repro.core.hierarchy import QueueHierarchy
from repro.core.manager import PIOMan
from repro.core.progress import piom_wait
from repro.core.task import LTask
from repro.par import derive_seed
from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.threads.instructions import Compute
from repro.threads.scheduler import Scheduler
from repro.topology.builder import MACHINES, borderline
from repro.topology.cpuset import CpuSet


def _world(machine, seed: int, true_spin: bool):
    engine = Engine()
    sched = Scheduler(machine, engine, rng=Rng(seed), true_spin=true_spin)
    return engine, sched, PIOMan(machine, engine, sched)


def _roundtrips(true_spin: bool, target_core: int, reps: int = 40):
    m = borderline()
    eng, sched, pio = _world(m, 5, true_spin)
    times = []

    def body(ctx):
        for i in range(reps):
            task = LTask(None, cpuset=CpuSet.single(target_core), name=f"v{i}")
            t0 = ctx.now
            yield from pio.submit(0, task)
            yield from piom_wait(pio, 0, task, mode="spin")
            times.append(ctx.now - t0)

    sched.spawn(body, 0, name="v")
    eng.run(until=reps * 1_000_000)
    assert len(times) == reps
    steady = times[reps // 4 :]
    return sum(steady) / len(steady), eng.fired


def test_doorbell_model_matches_true_spin():
    doorbell_mean, doorbell_events = _roundtrips(False, target_core=5)
    spin_mean, spin_events = _roundtrips(True, target_core=5)
    # Same physics within the probe-cycle quantization noise.
    tolerance = borderline().spec.probe_cycle_ns + 60
    assert abs(doorbell_mean - spin_mean) <= tolerance, (
        f"doorbell {doorbell_mean:.0f} ns vs true-spin {spin_mean:.0f} ns"
    )


def test_true_spin_costs_more_events():
    _, doorbell_events = _roundtrips(False, target_core=5, reps=20)
    _, spin_events = _roundtrips(True, target_core=5, reps=20)
    assert spin_events > 2 * doorbell_events  # why the doorbell model exists


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------
def _table_row(machine_name: str, label: str, true_spin: bool, reps: int = 60) -> float:
    """Mean steady round trip of one Table I/II row, measured the way
    ``measure_queue`` measures it (seed 1, offset per row as
    ``run_task_microbench`` offsets it, first fifth dropped)."""
    machine = MACHINES[machine_name]()
    if label == "global":
        cpuset, seed = machine.all_cores(), 1 + 999
    else:
        (node,) = [
            q.node for q in QueueHierarchy(machine, Engine()).queues()
            if f"{q.node.level.name.lower()}#{q.node.index}" == label
        ]
        cpuset, seed = node.cpuset, 1 + 100 + node.index
    engine, sched, pio = _world(machine, seed, true_spin)
    samples = []

    def submitter(ctx):
        for i in range(reps):
            t0 = ctx.now
            task = LTask(None, cpuset=cpuset, name=f"bench{i}")
            yield from pio.submit(0, task)
            yield from piom_wait(pio, 0, task, mode="spin")
            samples.append(ctx.now - t0)

    sched.spawn(submitter, 0, name="bench-submitter")
    engine.run(until=reps * 1_000_000)
    assert len(samples) == reps
    steady = samples[reps // 5 :]
    return sum(steady) / len(steady)


def _idle_poll_lag(seed: int, true_spin: bool, ntasks: int = 40, gap_ns: int = 20_000) -> float:
    """Mean submit→complete lag of the ``idle_poll`` shape."""
    machine = MACHINES["ccx24"]()
    engine, sched, pio = _world(machine, seed, true_spin)
    rng = Rng(derive_seed(seed, "targets"))
    tasks = [
        LTask(None, cpuset=CpuSet.single(1 + rng.randint(0, machine.ncores - 2)), name=f"t{i}")
        for i in range(ntasks)
    ]

    def submitter(ctx):
        for i, task in enumerate(tasks):
            wait = (i + 1) * gap_ns - ctx.now
            if wait > 0:
                yield Compute(wait)
            yield from pio.submit(ctx.core_id, task)
        yield Compute(100_000)  # keep the pollers busy past the last task

    sched.spawn(submitter, 0, name="submitter")
    engine.run()
    lags = [task.latency_ns() for task in tasks]
    assert None not in lags
    return sum(lags) / len(lags)


def _busy_makespan(seed: int, true_spin: bool, submitters: int = 4, round_trips: int = 40) -> int:
    """Makespan of the ``pioman_busy`` shape: one closed-loop submitter
    per NUMA node, CPU sets drawn from the whole machine, one NUMA node
    or one core that runs no submitter."""
    machine = MACHINES["kwak"]()
    engine, sched, pio = _world(machine, seed, true_spin)
    per_numa = machine.ncores // submitters
    homes = [k * per_numa for k in range(submitters)]
    workers = [c for c in range(machine.ncores) if c not in homes]
    tasks = []
    for k, home in enumerate(homes):
        rng = Rng(derive_seed(seed, f"submitter{k}"))
        mine = []
        for i in range(round_trips):
            kind = rng.randint(0, 2)
            if kind == 0:
                cpuset = machine.all_cores()
            elif kind == 1:
                node = rng.randint(0, submitters - 1)
                cpuset = CpuSet.range(node * per_numa, (node + 1) * per_numa)
            else:
                cpuset = CpuSet.single(workers[rng.randint(0, len(workers) - 1)])
            mine.append(LTask(None, cpuset=cpuset, name=f"s{k}.{i}"))
        tasks.extend(mine)

        def body(ctx, mine=mine):
            for task in mine:
                yield from pio.submit(ctx.core_id, task)
                yield from piom_wait(pio, ctx.core_id, task, mode="spin")

        sched.spawn(body, home, name=f"submitter{k}")
    engine.run(until=len(tasks) * 1_000_000)
    done = [task.complete_time for task in tasks]
    assert None not in done
    return max(done)


#: Measured true_spin/doorbell ratios (60 reps, seed 1): borderline
#: chip#0 0.996, chip#1 0.992, global 0.956; kwak cache#0 0.999,
#: cache#1 0.940, global 1.037.  Widest deviation 6.0%.
TABLE_TOLERANCE = 0.08


@pytest.mark.parametrize(
    "machine_name,label",
    [
        ("borderline", "chip#0"),
        ("borderline", "chip#1"),
        ("borderline", "global"),
        ("kwak", "cache#0"),
        ("kwak", "cache#1"),
        ("kwak", "global"),
    ],
)
def test_contended_table_rows_agree(machine_name, label):
    doorbell = _table_row(machine_name, label, true_spin=False)
    spin = _table_row(machine_name, label, true_spin=True)
    assert abs(spin / doorbell - 1) <= TABLE_TOLERANCE, (
        f"{machine_name} {label}: doorbell {doorbell:.0f} ns vs true-spin {spin:.0f} ns"
    )


#: Measured true_spin/doorbell lag ratios: seed 1 0.985, seed 2 0.995,
#: seed 3 0.986.  Widest deviation 1.5%.
IDLE_TOLERANCE = 0.03


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_idle_poll_lag_agrees(seed):
    doorbell = _idle_poll_lag(seed, true_spin=False)
    spin = _idle_poll_lag(seed, true_spin=True)
    assert abs(spin / doorbell - 1) <= IDLE_TOLERANCE, (
        f"seed {seed}: doorbell lag {doorbell:.0f} ns vs true-spin {spin:.0f} ns"
    )


#: Measured true_spin/doorbell makespan ratios: seed 1 1.118, seed 2
#: 1.039, seed 3 0.994.  true_spin runs systematically longer on this
#: shape (ROADMAP item 1 tracks the mechanism), so the band is
#: asymmetric: at most 2% shorter, at most 15% longer.
BUSY_BAND = (0.98, 1.15)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_busy_makespan_agrees(seed):
    doorbell = _busy_makespan(seed, true_spin=False)
    spin = _busy_makespan(seed, true_spin=True)
    lo, hi = BUSY_BAND
    assert lo <= spin / doorbell <= hi, (
        f"seed {seed}: doorbell makespan {doorbell} ns vs true-spin {spin} ns"
    )
