"""Process-level experiment parallelism — ``repro.par``.

The simulator is deterministic, seeded and shared-nothing: every bench
scenario builds its own :class:`~repro.sim.engine.Engine`, scheduler and
machine, so two scenarios never share mutable state.  CPython's GIL makes
in-process threading useless for this workload (DESIGN.md band-2 note),
but *process*-level fan-out is free parallelism — the model Dask's
distributed workers use, applied to a single host.

The contract is **bit-identical to serial**: a job's outcome depends only
on its spec (target + kwargs, seed included), never on which worker ran
it, in what order, or how many workers there were.  :func:`run_jobs`
returns results re-sorted into spec order, so callers see exactly what a
serial loop would have produced.

* :class:`JobSpec` / :class:`JobResult` — the picklable unit of work and
  its outcome (value or error, wall time, attempts, worker pid);
* :func:`derive_seed` — stable per-job seeds from one root seed;
* :func:`run_jobs` / :func:`run_jobs_strict` — the pool: ``fork``-based
  workers with per-job timeout, one bounded retry on worker crash, and a
  clean in-process serial fallback (resolved ``jobs<=1`` or no ``fork``);
* :func:`resolve_jobs` — ``0``/``"auto"``/``None`` → ``os.cpu_count()``,
  so every CLI and API jobs knob speaks the same dialect;
* :class:`ShardPool` — the *stateful* sibling: K long-lived states on K
  processes, each a live object (a cluster shard's engine + fabric)
  serving method calls until closed.  State 0 is hosted in the caller,
  the rest live in forked workers behind pipes, so the caller computes
  a share of every call — the substrate for :mod:`repro.cluster.shard`'s
  window-synchronized parallel simulation.

The names load on first access: the simulator imports
:func:`derive_seed` without loading a pool.  Both pools fork through
:mod:`repro.par.fork`, one ``os.fork``-and-pipes primitive that loads
with the first fork.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy(__name__, {
    "repro.par.jobs": (
        "JobFailure", "JobResult", "JobSpec", "derive_seed", "resolve_target",
    ),
    "repro.par.pool": ("has_fork", "resolve_jobs", "run_jobs", "run_jobs_strict"),
    "repro.par.shardpool": ("ShardPool", "ShardPoolError"),
})

__all__ = [
    "JobFailure",
    "JobResult",
    "JobSpec",
    "ShardPool",
    "ShardPoolError",
    "derive_seed",
    "has_fork",
    "resolve_jobs",
    "resolve_target",
    "run_jobs",
    "run_jobs_strict",
]
