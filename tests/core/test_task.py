"""LTask: construction, options, run semantics, reuse."""

import pytest

from repro.core.task import LTask, TaskOption, TaskState
from repro.topology.cpuset import CpuSet


def test_requires_nonempty_cpuset():
    with pytest.raises(ValueError):
        LTask(None, cpuset=CpuSet(0))


def test_rejects_negative_cost():
    with pytest.raises(ValueError):
        LTask(None, cpuset=CpuSet.single(0), cost_ns=-1)


def test_default_state_created():
    t = LTask(None, cpuset=CpuSet.single(0))
    assert t.state is TaskState.CREATED
    assert not t.done


def test_option_flags():
    t = LTask(None, cpuset=CpuSet.single(0), options=TaskOption.REPEAT)
    assert t.repeat and not t.preemptive
    t2 = LTask(None, cpuset=CpuSet.single(0), options=TaskOption.PREEMPTIVE)
    assert t2.preemptive and not t2.repeat
    t3 = LTask(
        None, cpuset=CpuSet.single(0), options=TaskOption.REPEAT | TaskOption.PREEMPTIVE
    )
    assert t3.repeat and t3.preemptive
    t3.options = TaskOption.NONE
    assert t3.repeat is False and not t3.preemptive


def test_run_none_func_is_complete():
    t = LTask(None, cpuset=CpuSet.single(0))
    assert t.run(0) is True
    assert t.executions == 1
    assert t.current_core == 0


def test_repeat_verdict_from_function():
    calls = []

    def poll(task):
        calls.append(1)
        return len(calls) >= 3

    t = LTask(poll, cpuset=CpuSet.single(0), options=TaskOption.REPEAT)
    assert t.run(0) is False
    assert t.run(0) is False
    assert t.run(0) is True


def test_non_repeat_ignores_function_verdict():
    t = LTask(lambda task: False, cpuset=CpuSet.single(0))
    assert t.run(0) is True


def test_function_receives_task_and_arg():
    seen = {}

    def fn(task):
        seen["arg"] = task.arg
        return True

    t = LTask(fn, arg="payload", cpuset=CpuSet.single(0))
    t.run(0)
    assert seen["arg"] == "payload"


def test_reset_allows_reuse():
    """Every per-submission field starts over, the execution count
    included: the manager recognises a submission's first run by
    ``executions == 0``."""
    t = LTask(None, cpuset=CpuSet([0, 1]))
    t.run(1)
    t.state = TaskState.DONE
    t.submit_time = 55
    t.reset()
    assert t.state is TaskState.CREATED
    assert t.submit_time is None and t.completion is None
    assert (t.executions, t.poll_attempts, t.current_core) == (0, 0, None)


def test_reset_inflight_raises():
    t = LTask(None, cpuset=CpuSet.single(0))
    t.state = TaskState.QUEUED
    with pytest.raises(RuntimeError):
        t.reset()


def test_repr_mentions_state_and_cpuset():
    t = LTask(None, cpuset=CpuSet([2, 3]), options=TaskOption.REPEAT, name="pollx")
    text = repr(t)
    assert "pollx" in text and "repeat" in text and "[2, 3]" in text
