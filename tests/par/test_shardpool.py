"""ShardPool: long-lived stateful workers behind request/reply pipes.

The pool's contracts under test: state persists across calls (serial and
forked identically), state 0 is hosted in the caller and the rest are
forked, scatter fans per-worker arguments out before collecting any
reply, an in-band method exception leaves the worker alive and every
reply is still read (the next call sees its own replies), and worker
death / timeout / construction failure poison the pool loudly rather
than silently rebuilding simulation state.
"""

import multiprocessing
import os

import pytest

from repro.par import JobSpec, ShardPool
from repro.par.pool import has_fork
from repro.par.shardpool import ShardPoolError

from . import jobhelpers  # noqa: F401  (must be importable in workers)

COUNTER = "tests.par.jobhelpers:make_counter"

needs_fork = pytest.mark.skipif(not has_fork(), reason="platform cannot fork")


def counter_specs(n, start=0):
    return [
        JobSpec(name=f"c{i}", target=COUNTER, kwargs={"start": start + i})
        for i in range(n)
    ]


@pytest.fixture(params=["serial", "forked"])
def mode(request):
    if request.param == "forked" and not has_fork():
        pytest.skip("platform cannot fork")
    return request.param == "serial"


class TestCalls:
    def test_state_persists_across_calls(self, mode):
        with ShardPool(counter_specs(3), serial=mode) as pool:
            assert pool.broadcast("get") == [0, 1, 2]
            assert pool.broadcast("bump") == [1, 2, 3]
            assert pool.broadcast("bump", 10) == [11, 12, 13]
            assert pool.call(1, "get") == 12

    def test_scatter_sends_per_worker_arguments(self, mode):
        with ShardPool(counter_specs(3), serial=mode) as pool:
            assert pool.scatter("bump", [(5,), (6,), (7,)]) == [5, 7, 9]
            assert pool.scatter(
                "bump", [(), (), ()],
                [{"by": 100}, {"by": 200}, {"by": 300}],
            ) == [105, 207, 309]

    def test_scatter_rejects_wrong_arity(self, mode):
        with ShardPool(counter_specs(2), serial=mode) as pool:
            with pytest.raises(ValueError, match="argument tuples"):
                pool.scatter("bump", [(1,)])

    def test_method_exception_is_in_band_and_worker_survives(self, mode):
        with ShardPool(counter_specs(2), serial=mode) as pool:
            pool.broadcast("bump")
            with pytest.raises((ShardPoolError, RuntimeError), match="window error"):
                pool.call(0, "boom")
            # the worker kept its state and keeps serving
            assert pool.broadcast("get") == [1, 2]

    def test_failed_broadcast_leaves_no_stale_replies(self, mode):
        """Every worker raises: the first error is raised only after all
        replies are read, so later calls get their own replies."""
        with ShardPool(counter_specs(3), serial=mode) as pool:
            with pytest.raises(ShardPoolError, match="'c0'") as info:
                pool.broadcast("boom")
            assert info.value.shard == "c0"
            assert pool.broadcast("get") == [0, 1, 2]
            assert pool.broadcast("get") == [0, 1, 2]

    def test_hosted_exception_keeps_the_pipes_in_step(self, mode):
        with ShardPool(counter_specs(3), serial=mode) as pool:
            with pytest.raises(ShardPoolError, match="'c0' raised") as info:
                pool.scatter("bump", [("x",), (1,), (1,)])
            assert isinstance(info.value.__cause__, TypeError)
            # the other workers ran their call and the replies were consumed
            assert pool.broadcast("get") == [0, 2, 3]
            assert pool.call(2, "get") == 3


@needs_fork
class TestForkedSpecifics:
    def test_workers_are_distinct_processes(self):
        """State 0 is hosted by the caller; the rest are distinct forks."""
        with ShardPool(counter_specs(3)) as pool:
            pids = pool.broadcast("where")
            assert pids[0] == os.getpid()
            assert len(set(pids[1:])) == 2
            assert os.getpid() not in pids[1:]
            assert pool.pids == [None] + pids[1:]

    def test_single_state_forks_nothing(self):
        before = set(multiprocessing.active_children())
        with ShardPool(counter_specs(1)) as pool:
            assert set(multiprocessing.active_children()) == before
            assert pool.pids == [None]
            assert pool.broadcast("where") == [os.getpid()]
            assert pool.reply_wait_s == 0.0

    def test_serial_pool_reports_no_pids(self):
        with ShardPool(counter_specs(2), serial=True) as pool:
            assert pool.pids == [None, None]

    def test_unpicklable_reply_is_reported_in_band(self):
        with ShardPool(counter_specs(2)) as pool:
            with pytest.raises(ShardPoolError, match="not picklable"):
                pool.call(1, "opaque")
            assert pool.broadcast("get") == [0, 1]  # still alive

    def test_timeout_poisons_the_pool(self):
        with ShardPool(counter_specs(2), timeout_s=0.3) as pool:
            with pytest.raises(ShardPoolError, match="timed out") as info:
                pool.scatter("nap", [(0.0,), (30.0,)])
            assert info.value.shard == "c1"
            with pytest.raises(ShardPoolError, match="poisoned"):
                pool.broadcast("get")

    def test_reply_wait_is_measured_after_the_hosted_call(self):
        with ShardPool(counter_specs(2)) as pool:
            pool.scatter("nap", [(0.0,), (0.2,)])
            assert pool.reply_wait_s >= 0.1

    def test_construction_failure_raises_not_first_window(self):
        specs = [
            JobSpec(name="ok", target=COUNTER),
            JobSpec(name="bad", target="tests.par.jobhelpers:boom"),
        ]
        with pytest.raises(ShardPoolError, match="failed to build"):
            ShardPool(specs)

    def test_hosted_build_failure_raises_after_reaping_the_forks(self):
        specs = [
            JobSpec(name="bad", target="tests.par.jobhelpers:boom"),
            JobSpec(name="ok1", target=COUNTER),
            JobSpec(name="ok2", target=COUNTER),
        ]
        with pytest.raises(ShardPoolError, match="'bad' failed to build") as info:
            ShardPool(specs)
        assert info.value.shard == "bad"
        assert isinstance(info.value.__cause__, ValueError)
        assert not [
            p for p in multiprocessing.active_children()
            if p.name.startswith("repro-shard-")
        ]


class TestLifecycle:
    def test_rejects_empty_and_duplicate_specs(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardPool([])
        with pytest.raises(ValueError, match="duplicate"):
            ShardPool(counter_specs(1) * 2, serial=True)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0, -1])
    def test_rejects_meaningless_timeouts(self, bad):
        """nan and inf would silently mean no limit, 0 and -1 a failed
        first build: all raise before any worker is forked."""
        with pytest.raises(ValueError, match="timeout_s"):
            ShardPool(counter_specs(2), timeout_s=bad)
        assert not [
            p for p in multiprocessing.active_children()
            if p.name.startswith("repro-shard-")
        ]

    def test_closed_pool_refuses_calls(self, mode):
        pool = ShardPool(counter_specs(1), serial=mode)
        pool.close()
        with pytest.raises(ShardPoolError, match="closed"):
            pool.broadcast("get")
        pool.close()  # idempotent
