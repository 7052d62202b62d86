"""repro — a reproduction of *"A scalable and generic task scheduling
system for communication libraries"* (Trahay & Denis, CLUSTER 2009).

The package rebuilds the paper's whole stack on a deterministic
discrete-event simulator (see DESIGN.md for the substitution rationale):

* :mod:`repro.core` — **PIOMan**, the hierarchical lightweight task
  scheduler (the paper's contribution);
* :mod:`repro.topology`, :mod:`repro.mem`, :mod:`repro.sync`,
  :mod:`repro.threads`, :mod:`repro.sim` — the machine substrate
  (topology-aware cache-line costs, spinlocks, Marcel-like scheduler with
  keypoints, virtual clock);
* :mod:`repro.net`, :mod:`repro.nmad`, :mod:`repro.mpi`,
  :mod:`repro.cluster` — the communication substrate (NIC/fabric models,
  NewMadeleine, Mad-MPI and the MVAPICH/OpenMPI-like baselines);
* :mod:`repro.bench` — harnesses regenerating every table and figure.

Quickstart::

    from repro import Engine, Scheduler, PIOMan, LTask, CpuSet, borderline
    from repro.core import piom_wait

    machine = borderline()
    engine = Engine()
    sched = Scheduler(machine, engine)
    pioman = PIOMan(machine, engine, sched)

    def main(ctx):
        task = LTask(None, cpuset=CpuSet.single(3), name="hello")
        yield from pioman.submit(ctx.core_id, task)
        yield from piom_wait(pioman, ctx.core_id, task)

    sched.spawn(main, core=0)
    engine.run()

Every name below is loaded on first access, so a process imports only
the layers it uses: ``from repro import PIOMan`` loads the machine
substrate and PIOMan, not NewMadeleine, MPI or the cluster harness.
"""


def _lazy(package: str, exports: dict):
    """PEP 562 ``(__getattr__, __dir__)`` for ``package``, whose public
    names live in modules it does not import up front.

    ``exports`` maps each defining module to the names it exports.  A
    name is imported from its module on first access and then cached as
    a plain attribute; a name whose module is ``f"{package}.{name}"`` is
    that submodule itself.
    """
    import sys
    from importlib import import_module

    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = import_module(module)
        if module != f"{package}.{name}":
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__


__version__ = "1.0.0"

__getattr__, __dir__ = _lazy(__name__, {
    "repro.sim": ("Engine", "Rng", "Tracer", "NS", "US", "MS", "fmt_ns"),
    "repro.topology": (
        "CpuSet", "Level", "Machine", "MachineSpec",
        "borderline", "kwak", "numa_machine", "smp",
    ),
    "repro.sync": ("AtomicCounter", "Condition", "LockStats", "Mutex", "SpinLock"),
    "repro.threads": ("Flag", "Prio", "Scheduler", "SimThread", "ThreadCtx"),
    "repro.core": (
        "LTask", "PIOMan", "QueueHierarchy", "TaskOption", "TaskQueue",
        "TaskState", "piom_wait",
    ),
    "repro.cluster": ("Cluster", "Node"),
    "repro.nmad": ("NMad",),
    "repro.obs": ("MetricsRegistry", "chrome_trace", "write_chrome_trace"),
    "repro.pioio": ("BlockDevice", "PIOIo"),
    "repro.mpi": ("MadMPI", "MVAPICHLike", "OpenMPILike"),
})

__all__ = [
    "Engine", "Rng", "Tracer", "NS", "US", "MS", "fmt_ns",
    "MetricsRegistry", "chrome_trace", "write_chrome_trace",
    "CpuSet", "Level", "Machine", "MachineSpec",
    "borderline", "kwak", "smp", "numa_machine",
    "SpinLock", "Mutex", "Condition", "AtomicCounter", "LockStats",
    "Flag", "Prio", "Scheduler", "SimThread", "ThreadCtx",
    "LTask", "TaskOption", "TaskState", "TaskQueue", "QueueHierarchy",
    "PIOMan", "piom_wait",
    "Cluster", "Node", "NMad", "BlockDevice", "PIOIo",
    "MadMPI", "MVAPICHLike", "OpenMPILike",
    "__version__",
]
