"""Forward scalability study (the paper's motivating trend).

"The evolution of processors is leading to tens or maybe hundreds of
cores per node" (§I).  This harness extends Tables I/II beyond the
paper's 8/16-core hosts: generic NUMA machines of growing core counts
run the same microbenchmark, comparing the hierarchical queues against
the flat global list — the quantitative version of the paper's §III
argument that the big-lock organisation "is likely not to scale up".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.bench.task_microbench import measure_queue
from repro.topology.builder import numa_machine
from repro.topology.machine import Level, Machine, MachineSpec


def scaled_machine(nnuma: int, cores_per_numa: int) -> Machine:
    """A kwak-like NUMA machine scaled to ``nnuma * cores_per_numa`` cores
    (same calibration constants as kwak, so results are comparable)."""
    spec = MachineSpec(
        name=f"numa{nnuma}x{cores_per_numa}",
        local_ns=6,
        cas_ns=12,
        xfer_ns={Level.CACHE: 10, Level.MACHINE: 155},
        contended_factor=25.0,
        inval_ns={Level.CACHE: 120, Level.MACHINE: 160},
    )
    return numa_machine(nnuma, 1, cores_per_numa, shared_l3=True, spec=spec)


@dataclass
class ScalePoint:
    ncores: int
    local_ns: float
    chip_ns: float
    global_ns: float
    flat_global_ns: float

    @property
    def global_blowup(self) -> float:
        """Global-queue cost relative to the local reference."""
        return self.global_ns / self.local_ns


@dataclass
class ScaleStudy:
    points: list[ScalePoint] = field(default_factory=list)

    def format(self) -> str:
        lines = [
            "Global-queue scalability (kwak-calibrated NUMA machines)",
            f"{'cores':>6}{'local ns':>10}{'chip ns':>10}{'global ns':>11}"
            f"{'blowup':>8}{'flat ns':>10}",
        ]
        for p in self.points:
            lines.append(
                f"{p.ncores:>6}{p.local_ns:>10.0f}{p.chip_ns:>10.0f}"
                f"{p.global_ns:>11.0f}{p.global_blowup:>8.1f}{p.flat_global_ns:>10.0f}"
            )
        return "\n".join(lines)


def scale_point(nnuma: int, per: int, *, reps: int = 100, seed: int = 21) -> ScalePoint:
    """Measure one machine shape: the local per-core queue, one per-chip
    queue, the global queue, and the flat (no-hierarchy) organisation
    serving a core-affine task."""
    m = scaled_machine(nnuma, per)
    local = measure_queue(
        m, m.core_nodes[0].cpuset, label="core#0", reps=reps, seed=seed
    )
    chip_node = next(n for n in m.nodes if n.level == Level.CACHE)
    chip = measure_queue(
        m, chip_node.cpuset, label="chip", reps=reps, seed=seed + 1
    )
    glob = measure_queue(
        m, m.all_cores(), label="global", reps=reps, seed=seed + 2
    )
    # flat: a core-affine task forced through the single shared list
    flat = measure_queue(
        m,
        m.core_nodes[min(5, m.ncores - 1)].cpuset,
        label="flat",
        reps=reps,
        seed=seed + 3,
        hierarchical=False,
    )
    return ScalePoint(
        ncores=m.ncores,
        local_ns=local.mean_ns,
        chip_ns=chip.mean_ns,
        global_ns=glob.mean_ns,
        flat_global_ns=flat.mean_ns,
    )


def run_scalability(
    shapes: Sequence[tuple[int, int]] = ((2, 4), (4, 4), (4, 8), (8, 8)),
    *,
    reps: int = 100,
    seed: int = 21,
) -> ScaleStudy:
    """Sweep machine sizes via :func:`scale_point`, one point per shape."""
    return ScaleStudy(
        points=[scale_point(nnuma, per, reps=reps, seed=seed) for nnuma, per in shapes]
    )
