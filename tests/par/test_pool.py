"""repro.par pool semantics: ordering, fallback, and every failure path
(timeout, crash + bounded retry, in-band exception, unpicklable result)."""

import os

import pytest

from repro.par import (
    JobFailure,
    JobSpec,
    derive_seed,
    has_fork,
    resolve_jobs,
    resolve_target,
    run_jobs,
    run_jobs_strict,
)

HELPERS = "tests.par.jobhelpers"

needs_fork = pytest.mark.skipif(not has_fork(), reason="platform lacks fork")


def _echo_specs(n):
    return [
        JobSpec(f"echo{i}", f"{HELPERS}:echo", {"value": i}) for i in range(n)
    ]


# ----------------------------------------------------------------------
# spec plumbing
# ----------------------------------------------------------------------
def test_derive_seed_is_stable_and_key_sensitive():
    assert derive_seed(7, "a") == derive_seed(7, "a")
    assert derive_seed(7, "a") != derive_seed(7, "b")
    assert derive_seed(7, "a") != derive_seed(8, "a")
    assert 0 <= derive_seed(7, "a") < 2**32


def test_resolve_target_validates():
    assert resolve_target(f"{HELPERS}:echo")(value=3) == 3
    with pytest.raises(ValueError, match="module:callable"):
        resolve_target("no-colon")
    with pytest.raises(ValueError, match="no attribute"):
        resolve_target(f"{HELPERS}:nonexistent")


def test_duplicate_job_names_rejected():
    specs = [
        JobSpec("same", f"{HELPERS}:echo", {"value": 1}),
        JobSpec("same", f"{HELPERS}:echo", {"value": 2}),
    ]
    with pytest.raises(ValueError, match="duplicate"):
        run_jobs(specs, jobs=2)


# ----------------------------------------------------------------------
# jobs-knob resolution and workers stamping
# ----------------------------------------------------------------------
def test_resolve_jobs_auto_means_every_cpu():
    ncpu = os.cpu_count() or 1
    assert resolve_jobs(0) == ncpu
    assert resolve_jobs(None) == ncpu
    assert resolve_jobs("auto") == ncpu
    assert resolve_jobs("AUTO") == ncpu
    assert resolve_jobs(" 0 ") == ncpu
    assert resolve_jobs("") == ncpu


def test_resolve_jobs_passes_positive_ints_through():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(7) == 7
    assert resolve_jobs("3") == 3


def test_resolve_jobs_rejects_garbage():
    with pytest.raises(ValueError):
        resolve_jobs(-2)
    with pytest.raises(ValueError):
        resolve_jobs("many")


def test_serial_results_stamp_workers_1():
    results = run_jobs(_echo_specs(3), jobs=1)
    assert [r.workers for r in results] == [1, 1, 1]


@needs_fork
def test_parallel_results_stamp_resolved_workers():
    # 8 specs, jobs=3: the batch really ran under 3 workers
    results = run_jobs(_echo_specs(8), jobs=3)
    assert {r.workers for r in results} == {3}
    # the cap is min(jobs, len(specs)) — callers see the truth, not the ask
    results = run_jobs(_echo_specs(2), jobs=16)
    assert {r.workers for r in results} == {2}


@needs_fork
def test_jobs_auto_runs_parallel_and_stamps_cpu_count():
    ncpu = os.cpu_count() or 1
    results = run_jobs(_echo_specs(3), jobs="auto")
    want = min(ncpu, 3) if ncpu > 1 else 1
    assert {r.workers for r in results} == {want}
    assert [r.value for r in results] == [0, 1, 2]


# ----------------------------------------------------------------------
# ordering and fallback
# ----------------------------------------------------------------------
@needs_fork
def test_results_come_back_in_spec_order():
    results = run_jobs(_echo_specs(8), jobs=4)
    assert [r.value for r in results] == list(range(8))
    assert [r.index for r in results] == list(range(8))
    assert all(r.ok and r.parallel for r in results)


@needs_fork
def test_parallel_runs_use_distinct_worker_processes():
    specs = [JobSpec(f"pid{i}", f"{HELPERS}:pid", {}) for i in range(4)]
    results = run_jobs(specs, jobs=4)
    pids = {r.value for r in results}
    assert os.getpid() not in pids
    assert len(pids) == 4  # one fresh process per job, no reuse


def test_jobs_1_falls_back_to_in_process_serial():
    results = run_jobs(
        [JobSpec("p", f"{HELPERS}:pid", {})] + _echo_specs(2), jobs=1
    )
    assert results[0].value == os.getpid()
    assert [r.value for r in results[1:]] == [0, 1]
    assert all(not r.parallel and r.pid is None for r in results)


def test_single_spec_runs_in_process():
    (result,) = run_jobs([JobSpec("one", f"{HELPERS}:add", {"a": 2, "b": 3})], jobs=8)
    assert result.ok and result.value == 5 and not result.parallel


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0, -1])
def test_meaningless_timeout_is_refused(bad):
    """A limit that is not positive finite seconds raises up front: nan
    would time every job out at once, inf overflows the wait, and 0 or
    a negative limit expire before any job could finish."""
    with pytest.raises(ValueError, match="timeout_s"):
        run_jobs(_echo_specs(2), jobs=2, timeout_s=bad)


# ----------------------------------------------------------------------
# failure paths
# ----------------------------------------------------------------------
@needs_fork
def test_worker_timeout_is_reported_and_others_survive():
    specs = [
        JobSpec("fast", f"{HELPERS}:echo", {"value": "ok"}),
        JobSpec("hung", f"{HELPERS}:sleepy", {"seconds": 60}),
    ]
    results = run_jobs(specs, jobs=2, timeout_s=0.5)
    assert results[0].ok and results[0].value == "ok"
    assert not results[1].ok
    assert "timed out after 0.5s" in results[1].error


@needs_fork
def test_timeout_is_single_shot_even_with_retry_budget():
    """A timeout must never be retried: the retry budget is for crashes.

    Before the fix a reaped worker looked exactly like a crashed one (EOF
    on the pipe), so a hung job got killed and relaunched as a crash —
    each time with a *fresh* full time budget, multiplying the intended
    wall-clock limit."""
    import time

    t0 = time.monotonic()
    specs = [JobSpec("hung", f"{HELPERS}:sleepy", {"seconds": 60})] + _echo_specs(1)
    results = run_jobs(specs, jobs=2, timeout_s=0.5)
    elapsed = time.monotonic() - t0
    assert not results[0].ok
    assert "timed out" in results[0].error or "deadline" in results[0].error
    assert results[0].attempts == 1  # one shot, no relaunch
    assert results[1].ok
    assert elapsed < 5.0  # one 0.5s budget plus reap slack


@needs_fork
def test_crash_at_deadline_is_terminal_not_retried():
    """A worker that outlives its deadline and then dies is a timeout,
    not a retryable crash — relaunching would grant a fresh budget."""
    specs = [
        JobSpec(
            "wedged", f"{HELPERS}:sleep_then_crash", {"seconds": 10, "exit_code": 7},
        ),
    ] + _echo_specs(1)
    results = run_jobs(specs, jobs=2, timeout_s=0.5)
    assert not results[0].ok
    assert results[0].attempts == 1
    assert "timed out" in results[0].error or "deadline" in results[0].error
    assert results[1].ok and results[1].value == 0


@needs_fork
def test_finished_job_is_drained_not_discarded_at_deadline(monkeypatch):
    """A result that lands in the pipe by the deadline is a result.

    Simulate a parent that never notices readiness (``wait`` always times
    out): the only way the finished jobs can complete is the last-chance
    ``poll()`` drain at deadline-reap time.  Before the fix they were
    reported as timeouts with the finished value thrown away."""
    import time

    from repro.par import pool as pool_mod

    def blind_wait(conns, timeout=None):
        # behave like a wait that never sees readiness, but don't busy-spin
        time.sleep(0.02 if timeout is None else min(timeout, 0.02))
        return []

    # replace the pool's wait seam, not connection.wait itself —
    # Connection.poll() routes through the real wait and must keep working
    monkeypatch.setattr(pool_mod, "_wait", blind_wait)
    specs = [
        JobSpec(f"quick{i}", f"{HELPERS}:sleepy_echo", {"value": i, "seconds": 0.01})
        for i in range(2)
    ]
    results = run_jobs(specs, jobs=2, timeout_s=0.3)
    for i, r in enumerate(results):
        assert r.ok, r.error
        assert r.value == i
        assert r.parallel


@needs_fork
def test_worker_crash_is_retried_once_then_succeeds(tmp_path):
    sentinel = tmp_path / "attempt.marker"
    specs = [
        JobSpec(
            "flaky",
            f"{HELPERS}:crash_once_then",
            {"value": "recovered", "sentinel": str(sentinel)},
        )
    ] + _echo_specs(1)
    results = run_jobs(specs, jobs=2)
    assert results[0].ok
    assert results[0].value == "recovered"
    assert results[0].attempts == 2
    assert sentinel.exists()


@needs_fork
def test_worker_crash_beyond_retry_budget_fails():
    specs = [JobSpec("dead", f"{HELPERS}:crash", {"exit_code": 5})] + _echo_specs(1)
    results = run_jobs(specs, jobs=2)
    assert not results[0].ok
    assert "crashed" in results[0].error
    assert results[0].attempts == 2
    assert results[1].ok  # the healthy job is unaffected


@needs_fork
def test_exception_in_job_is_not_retried():
    specs = [JobSpec("raises", f"{HELPERS}:boom", {"message": "nope"})] + _echo_specs(1)
    results = run_jobs(specs, jobs=2)
    assert not results[0].ok
    assert "ValueError: nope" in results[0].error
    assert results[0].attempts == 1


def test_exception_in_serial_fallback_is_captured_not_raised():
    specs = [JobSpec("raises", f"{HELPERS}:boom", {})] + _echo_specs(1)
    results = run_jobs(specs, jobs=1)
    assert not results[0].ok and "ValueError" in results[0].error
    assert results[1].ok


@needs_fork
def test_unpicklable_result_reported_in_band():
    specs = [JobSpec("bad", f"{HELPERS}:unpicklable", {})] + _echo_specs(1)
    results = run_jobs(specs, jobs=2)
    assert not results[0].ok
    assert "not picklable" in results[0].error


def test_run_jobs_strict_raises_with_every_failure_listed():
    specs = [
        JobSpec("ok", f"{HELPERS}:echo", {"value": 1}),
        JobSpec("bad1", f"{HELPERS}:boom", {"message": "first"}),
        JobSpec("bad2", f"{HELPERS}:boom", {"message": "second"}),
    ]
    with pytest.raises(JobFailure) as exc_info:
        run_jobs_strict(specs, jobs=1)
    message = str(exc_info.value)
    assert "bad1" in message and "bad2" in message
    assert len(exc_info.value.failures) == 2


def test_run_jobs_strict_returns_bare_values():
    assert run_jobs_strict(_echo_specs(3), jobs=1) == [0, 1, 2]
