"""Check both process pools on an interpreter that has no pytest.

Run:  /path/to/python tools/check_fork.py

Imports the package from this checkout's ``src/`` and checks, with plain
asserts, that a forked ``run_sharded`` gives the serial run's
fingerprint, that a forked shard's build imports no module (the
workload builder's module loaded everything before the fork), that a
``ShardPool`` worker killed by SIGKILL is reported with ``exit -9`` and
leaves no child behind, and that ``run_jobs`` over two workers returns
its results in spec order.  Prints one ``ok`` line and exits 0, or fails
with a traceback.
"""

from __future__ import annotations

import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.cluster.cluster import ShardSpec  # noqa: E402
from repro.cluster.shard import run_sharded  # noqa: E402
from repro.cluster.workload import WorkloadSpec, build_workload_cluster  # noqa: E402
from repro.par import JobSpec, ShardPool, ShardPoolError, run_jobs  # noqa: E402

BUILDER = "repro.cluster.workload:build_workload_cluster"


def check_sharded_identity() -> str:
    kwargs = {"spec": WorkloadSpec(nnodes=12, requests_per_node=4, seed=41),
              "machine": "smp1x2"}
    serial = run_sharded(BUILDER, kwargs, nshards=3, serial=True)
    forked = run_sharded(BUILDER, kwargs, nshards=3)
    assert forked.maxrss_kb[0] == 0 and all(forked.maxrss_kb[1:]), forked.maxrss_kb
    assert forked.fingerprint() == serial.fingerprint()
    return forked.fingerprint()[:16]


class ShardBuild:
    """A pool state: builds shard ``index`` of ``count`` of a small
    workload and keeps the names of the modules the build imported."""

    def __init__(self, index: int, count: int) -> None:
        before = set(sys.modules)
        build_workload_cluster(
            ShardSpec(index, count), spec=WorkloadSpec(nnodes=8, seed=5),
            machine="smp1x2",
        )
        self.new = sorted(set(sys.modules) - before)

    def imported(self) -> list:
        return self.new


def check_forked_build_imports_nothing() -> None:
    specs = [JobSpec(f"b{k}", "__main__:ShardBuild", {"index": k, "count": 2})
             for k in range(2)]
    with ShardPool(specs) as pool:
        assert pool.pids[0] is None and pool.pids[1], pool.pids
        imported = pool.broadcast("imported")
    assert imported == [[], []], imported


def check_killed_worker() -> None:
    specs = [
        JobSpec(f"c{i}", "tests.par.jobhelpers:make_counter", {"start": i})
        for i in range(3)
    ]
    pool = ShardPool(specs)
    try:
        pool.scatter("kill", [(), (signal.SIGKILL,), ()])
    except ShardPoolError as exc:
        assert exc.shard == "c1" and "died (exit -9)" in str(exc), exc
    else:
        raise AssertionError("a killed worker went unreported")
    pool.close()
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("the pool left a child behind")


def check_spec_order() -> None:
    specs = [
        JobSpec(f"echo{i}", "tests.par.jobhelpers:sleepy_echo",
                {"value": i, "seconds": 0.05 * (4 - i)})
        for i in range(4)
    ]
    results = run_jobs(specs, jobs=2)
    assert [r.value for r in results] == [0, 1, 2, 3], results
    assert all(r.ok and r.parallel and r.workers == 2 for r in results), results


def main() -> int:
    check_forked_build_imports_nothing()  # first: no build has run here yet
    fingerprint = check_sharded_identity()
    check_killed_worker()
    check_spec_order()
    print(f"ok: python {sys.version.split()[0]}: forked = serial "
          f"({fingerprint}), a forked build imports nothing, SIGKILL reads "
          "exit -9, run_jobs in spec order")
    return 0


if __name__ == "__main__":
    sys.exit(main())
