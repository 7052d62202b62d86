"""The job abstraction: picklable specs, deterministic seeds, results.

A job names a module-level callable by dotted path (``"pkg.mod:func"``)
plus keyword arguments.  Specs cross the process boundary by pickle, so
everything in ``kwargs`` must be picklable — plain data, or classes /
functions importable at module level.  The callable's return value is the
job's *value* and crosses back the same way.

Seeds are part of the spec, never of the execution: :func:`derive_seed`
maps ``(root_seed, job_key)`` to a stable 32-bit seed, so a job's random
stream is fixed the moment the spec is built — identical whether the job
runs serially, first on worker 3, or last after a crash retry.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


def derive_seed(root_seed: int, key: str) -> int:
    """A stable per-job seed from a root seed and the job's identity.

    Uses SHA-256 over ``"{root_seed}:{key}"`` truncated to 32 bits —
    order-free (no shared counter), collision-resistant across keys, and
    identical on every platform and Python version (unlike ``hash()``,
    which is salted per process).
    """
    digest = hashlib.sha256(f"{root_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def resolve_target(target: str) -> Callable[..., Any]:
    """Import ``"pkg.mod:callable"`` and return the callable."""
    module_name, sep, attr = target.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(f"job target must be 'module:callable', got {target!r}")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attr)
    except AttributeError:
        raise ValueError(f"{module_name!r} has no attribute {attr!r}") from None
    if not callable(fn):
        raise ValueError(f"job target {target!r} is not callable")
    return fn


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: a named call to a module-level function.

    ``name`` is the job's identity for reporting and seed derivation —
    unique within one :func:`run_jobs` batch.
    """

    name: str
    target: str
    kwargs: dict = field(default_factory=dict)

    def run(self) -> Any:
        """Execute in the current process (the serial path and the worker
        body are this same call, which is what makes them equivalent)."""
        return resolve_target(self.target)(**self.kwargs)


@dataclass
class JobResult:
    """Outcome of one job, in canonical (spec) order.

    ``ok`` jobs carry ``value``; failed jobs carry ``error`` (a string —
    exception reprs don't always pickle).  ``attempts`` counts executions
    including the crash retry; ``pid`` is the worker process (``None``
    when run in-process); ``parallel`` records which path executed it;
    ``workers`` is the resolved worker-process cap the batch ran under
    (1 for the serial path — ``jobs=0``/``auto`` resolves to the host's
    CPU count before it lands here, so consumers never see a 0).
    """

    name: str
    index: int
    ok: bool
    value: Any = None
    error: Optional[str] = None
    wall_ms: float = 0.0
    attempts: int = 1
    pid: Optional[int] = None
    parallel: bool = False
    workers: int = 1


class JobFailure(RuntimeError):
    """Raised by :func:`repro.par.run_jobs_strict` when any job failed."""

    def __init__(self, failures: list[JobResult]):
        self.failures = failures
        lines = [f"{len(failures)} job(s) failed:"]
        lines += [f"  {r.name}: {r.error}" for r in failures]
        super().__init__("\n".join(lines))
