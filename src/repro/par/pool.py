"""The process pool: fork-per-job fan-out with deterministic merging.

Design choices, in order of importance:

* **Results merge in spec order.**  Workers finish in whatever order the
  host's scheduler likes; :func:`run_jobs` always returns ``results[i]``
  for ``specs[i]``.  Combined with spec-carried seeds this makes the
  parallel path bit-identical to the serial one.
* **One process per job, no reuse.**  ``fork`` on Linux makes process
  startup cheap (the worker inherits the parent's imported modules), and
  a fresh process per job means a crash or leak in one scenario cannot
  poison the next — the shared-nothing model taken literally.
* **Failure is data.**  A job that raises returns an ``ok=False`` result;
  a *crashed* worker (killed, segfault, ``os._exit``) is retried once —
  the simulator is deterministic, so an in-band exception will just
  recur, but a crash may be environmental (OOM killer, signal).
* **Serial fallback.**  ``jobs <= 1``, a single spec, or a platform
  without ``fork`` (Windows, some macOS configs) runs the same specs
  in-process, in order, through the very same :meth:`JobSpec.run` the
  workers use.
* **Fork machinery on demand.**  :mod:`multiprocessing` loads where a
  pool forks or waits, not when this module is imported: a process that
  never forks (a serial run, the simulator itself) never holds it, and a
  forking one loads it just before the fork, so its children inherit it.
"""

from __future__ import annotations

import math
import os
import time
from typing import Optional, Sequence

from repro.par.jobs import JobFailure, JobResult, JobSpec

#: status tokens a worker sends back over its pipe
_OK, _ERR = "ok", "err"
#: relaunches granted to a worker that dies without reporting
_CRASH_RETRIES = 1


def has_fork() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _wait(conns: list, timeout: Optional[float]) -> list:
    """The pool's one wait on its workers' pipes: the connections ready
    to read (:func:`multiprocessing.connection.wait`)."""
    from multiprocessing import connection

    return connection.wait(conns, timeout=timeout)


def check_timeout(timeout_s: Optional[float]) -> None:
    """Refuse a wall-clock limit that means nothing: ``None`` is no
    limit, anything else must be a positive finite number of seconds
    (``nan`` would expire at once, ``inf`` overflows the wait)."""
    if timeout_s is not None and not (math.isfinite(timeout_s) and timeout_s > 0):
        raise ValueError(
            f"timeout_s must be positive finite seconds or None, got {timeout_s!r}"
        )


def resolve_jobs(jobs) -> int:
    """Resolve a user-facing jobs knob to a concrete worker count.

    ``0``, ``None`` and ``"auto"`` (any case) mean "use every CPU" —
    ``os.cpu_count()``.  Positive ints pass through; anything else is a
    :class:`ValueError`.  Every entry point that takes a jobs knob calls
    this, so ``--jobs auto`` behaves identically everywhere.
    """
    if jobs is None:
        return os.cpu_count() or 1
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text in ("auto", "0", ""):
            return os.cpu_count() or 1
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(
                f"jobs must be a positive int, 0, or 'auto'; got {jobs!r}"
            ) from None
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs!r}")
    return int(jobs)


def _worker_entry(spec: JobSpec, conn) -> None:
    """Worker body: run the job, send ``(status, payload, wall_ms)``.

    Runs inside the forked child.  Every exception — including a result
    that fails to pickle on the way back — is reported in-band as an
    ``err`` message; only a genuine crash leaves the pipe empty.
    """
    t0 = time.perf_counter()
    try:
        value = spec.run()
        wall_ms = (time.perf_counter() - t0) * 1e3
        try:
            conn.send((_OK, value, wall_ms))
        except Exception as exc:  # unpicklable result: report, don't crash
            conn.send((_ERR, f"result not picklable: {exc!r}", wall_ms))
    except BaseException as exc:
        wall_ms = (time.perf_counter() - t0) * 1e3
        try:
            conn.send((_ERR, f"{type(exc).__name__}: {exc}", wall_ms))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


def _run_serial(specs: Sequence[JobSpec], *, workers: int = 1) -> list[JobResult]:
    """In-process execution, spec order — the fallback and the oracle."""
    results: list[JobResult] = []
    for i, spec in enumerate(specs):
        t0 = time.perf_counter()
        try:
            value = spec.run()
            results.append(
                JobResult(
                    name=spec.name, index=i, ok=True, value=value,
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                    workers=workers,
                )
            )
        except Exception as exc:
            results.append(
                JobResult(
                    name=spec.name, index=i, ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                    workers=workers,
                )
            )
    return results


def run_jobs(
    specs: Sequence[JobSpec],
    *,
    jobs=1,
    timeout_s: Optional[float] = None,
) -> list[JobResult]:
    """Run every spec; return :class:`JobResult` objects **in spec order**.

    ``jobs`` is the worker-process cap (``0``/``"auto"``/``None`` resolve
    to ``os.cpu_count()`` via :func:`resolve_jobs`); ``timeout_s`` the
    per-job wall-clock limit of a forked job (``None`` = unlimited).  A
    worker that dies without reporting is retried once; a job that
    *raises* is not retried (the simulator is deterministic — it would
    raise again), and neither is one that timed out.

    Every result carries ``workers`` — the resolved concurrency the batch
    actually ran under — so callers never have to guess what ``auto``
    meant on this host.

    Falls back to in-process serial execution when the resolved count is
    1, when there is at most one spec, or when the platform lacks
    ``fork``.  Both paths execute
    :meth:`JobSpec.run`, so the fallback is an equivalence, not an
    approximation.
    """
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate job names: {names}")
    check_timeout(timeout_s)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(specs) <= 1 or not has_fork():
        return _run_serial(specs)
    workers = min(jobs, len(specs))

    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    results: list[Optional[JobResult]] = [None] * len(specs)
    pending: list[tuple[int, int]] = [(i, 1) for i in range(len(specs))]
    pending.reverse()  # pop() from the end -> dispatch in spec order
    #: conn -> (process, spec index, attempt, absolute deadline or None)
    running: dict = {}

    def launch(index: int, attempt: int) -> None:
        spec = specs[index]
        recv_end, send_end = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_entry, args=(spec, send_end),
            name=f"repro-par-{spec.name}", daemon=True,
        )
        proc.start()
        send_end.close()  # parent keeps only the read end
        deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        running[recv_end] = (proc, index, attempt, deadline)

    def reap(proc) -> None:
        """Stop a worker for good: SIGTERM, then SIGKILL if it lingers
        (a child that ignores/blocks SIGTERM must not hang the pool)."""
        proc.terminate()
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()

    def finish(conn, proc, index: int, attempt: int, result: JobResult) -> None:
        results[index] = result
        try:
            conn.close()
        except Exception:
            pass
        proc.join()

    def record_timeout(conn, proc, index: int, attempt: int) -> None:
        spec = specs[index]
        results[index] = JobResult(
            name=spec.name, index=index, ok=False,
            error=f"timed out after {timeout_s:g}s",
            attempts=attempt, pid=proc.pid, parallel=True,
        )
        try:
            conn.close()
        except Exception:
            pass

    try:
        while pending or running:
            while pending and len(running) < jobs:
                index, attempt = pending.pop()
                launch(index, attempt)
            now = time.monotonic()
            deadlines = [d for (_, _, _, d) in running.values() if d is not None]
            wait_s = max(0.0, min(deadlines) - now) if deadlines else None
            ready = _wait(list(running), wait_s)
            for conn in ready:
                proc, index, attempt, deadline = running.pop(conn)
                spec = specs[index]
                try:
                    status, payload, wall_ms = conn.recv()
                except (EOFError, OSError):
                    # pipe closed with nothing in it: the worker crashed
                    proc.join()
                    try:
                        conn.close()
                    except Exception:
                        pass
                    expired = (
                        deadline is not None and time.monotonic() >= deadline
                    )
                    if expired:
                        # A crash at/past the deadline is a timeout, not a
                        # retryable crash: relaunching would grant the job a
                        # fresh full time budget, so a wedged-then-killed
                        # worker could double or triple the intended limit.
                        results[index] = JobResult(
                            name=spec.name, index=index, ok=False,
                            error=f"worker crashed at its {timeout_s:g}s deadline "
                            f"(exit {proc.exitcode}), not retried",
                            attempts=attempt, pid=proc.pid, parallel=True,
                        )
                    elif attempt <= _CRASH_RETRIES:
                        pending.append((index, attempt + 1))
                    else:
                        results[index] = JobResult(
                            name=spec.name, index=index, ok=False,
                            error=f"worker crashed (exit {proc.exitcode}), "
                            f"{attempt} attempt(s)",
                            attempts=attempt, pid=proc.pid, parallel=True,
                        )
                    continue
                finish(
                    conn, proc, index, attempt,
                    JobResult(
                        name=spec.name, index=index, ok=status == _OK,
                        value=payload if status == _OK else None,
                        error=None if status == _OK else payload,
                        wall_ms=wall_ms, attempts=attempt,
                        pid=proc.pid, parallel=True,
                    ),
                )
            # Reap every job past its deadline on EVERY pass — not only
            # when the wait came back empty.  With a steady stream of
            # completions the wait never times out, and a wedged worker
            # used to outlive its deadline for as long as its siblings
            # kept finishing.
            now = time.monotonic()
            for conn, (proc, index, attempt, deadline) in list(running.items()):
                if deadline is None or now < deadline:
                    continue
                running.pop(conn)
                spec = specs[index]
                if conn.poll():
                    # Last-chance drain: the result landed in the pipe as
                    # the deadline expired.  The work is done — take it
                    # instead of discarding a finished job as a timeout.
                    try:
                        status, payload, wall_ms = conn.recv()
                    except (EOFError, OSError):
                        reap(proc)
                        record_timeout(conn, proc, index, attempt)
                        continue
                    finish(
                        conn, proc, index, attempt,
                        JobResult(
                            name=spec.name, index=index, ok=status == _OK,
                            value=payload if status == _OK else None,
                            error=None if status == _OK else payload,
                            wall_ms=wall_ms, attempts=attempt,
                            pid=proc.pid, parallel=True,
                        ),
                    )
                    continue
                reap(proc)
                record_timeout(conn, proc, index, attempt)
    finally:
        # belt-and-braces: never leak workers on an unexpected error
        for conn, (proc, _, _, _) in running.items():
            proc.terminate()
            proc.join(5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            try:
                conn.close()
            except Exception:
                pass
    assert all(r is not None for r in results)
    for result in results:
        result.workers = workers
    return results  # type: ignore[return-value]


def run_jobs_strict(
    specs: Sequence[JobSpec],
    *,
    jobs=1,
    timeout_s: Optional[float] = None,
) -> list:
    """Like :func:`run_jobs` but returns bare values, raising
    :class:`JobFailure` (listing every failed job) if any job failed."""
    results = run_jobs(specs, jobs=jobs, timeout_s=timeout_s)
    failures = [r for r in results if not r.ok]
    if failures:
        raise JobFailure(failures)
    return [r.value for r in results]
