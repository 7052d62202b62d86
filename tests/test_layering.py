"""The package's layering, checked in fresh interpreters.

A process imports only the layers it runs: the package roots load
their public names on first access, and :mod:`repro.sim` imports nothing
above it.  Each case starts a new interpreter, runs one import, and
reads ``sys.modules``, so a new eager import anywhere fails here instead
of slowing every process.  ``python -X importtime -c "import repro.X"``
shows who imported what, and at what cost.
"""

import ast
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ROOT = os.path.dirname(SRC)

PACKAGES = ["repro"] + sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
)

#: what the PIOMan benchmark workloads import
PIOMAN_IMPORT = (
    "from repro import CpuSet, Engine, LTask, MetricsRegistry, PIOMan, "
    "Scheduler, kwak, piom_wait"
)

#: what a PIOMan-only process must not load: the communication stack,
#: the cluster and fault layers, the offline trace tools, process pools
NOT_FOR_PIOMAN = [
    "repro.nmad", "repro.mpi", "repro.pioio", "repro.cluster", "repro.faults",
    "repro.net", "repro.obs.analyze", "repro.obs.critpath", "repro.obs.diff",
    "repro.obs.gantt", "multiprocessing", "numpy",
]


def fresh(code: str, result: str = "sorted(sys.modules)"):
    """Run ``code`` in a new interpreter that imports the package from
    this checkout, then evaluate ``result`` there (by default the names
    of every loaded module) and return its value."""
    script = f"import sys\nsys.path.insert(0, {SRC!r})\n{code}\nprint(repr({result}))"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def under(modules, prefixes) -> list:
    return sorted(
        m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


def test_event_engine_loads_nothing_outside_sim():
    loaded = under(fresh("import repro.sim.engine"), ["repro"])
    assert sorted(set(loaded) - {"repro"} - set(under(loaded, ["repro.sim"]))) == []
    assert "repro.sim.engine" in loaded


def test_pioman_loads_no_communication_stack():
    loaded = fresh(PIOMAN_IMPORT)
    assert under(loaded, NOT_FOR_PIOMAN) == []
    assert "repro.core.manager" in loaded


#: what the benchmark's probe imports to wrap the shard pool and the leap
POOL_IMPORT = (
    "import repro.cluster.shard, repro.par.shardpool, repro.par.pool, "
    "repro.core.leap"
)


#: what only a process that forks loads
FORK_MACHINERY = ["repro.par.fork", "pickle"]


def test_pools_load_no_fork_machinery_until_they_fork():
    # the benchmark's probe imports these in every repetition
    loaded = fresh(POOL_IMPORT)
    assert under(loaded, FORK_MACHINERY + ["traceback", "multiprocessing"]) == []
    # a serial batch and a one-state pool fork nothing either
    serial = (
        "from repro.par import JobSpec, ShardPool, run_jobs\n"
        "spec = JobSpec('one', 'repro.par.jobs:derive_seed', "
        "{'root_seed': 1, 'key': 'k'})\n"
        "assert run_jobs([spec, JobSpec('two', spec.target, spec.kwargs)])[1].ok\n"
        "with ShardPool([spec]) as pool:\n"
        "    assert pool.pids == [None]"
    )
    assert under(fresh(serial), FORK_MACHINERY) == []
    # a forking batch loads them
    forked = (
        "from repro.par import JobSpec, run_jobs\n"
        "specs = [JobSpec(n, 'repro.par.jobs:derive_seed', "
        "{'root_seed': 1, 'key': n}) for n in 'ab']\n"
        "assert all(r.ok and r.parallel for r in run_jobs(specs, jobs=2))"
    )
    assert under(fresh(forked), FORK_MACHINERY) == sorted(FORK_MACHINERY)


def test_no_process_loads_multiprocessing():
    """Serial and forking batches, one- and three-state pools and a
    forked sharded run: neither the caller nor any worker loads it."""
    code = (
        "from repro.par import JobSpec, ShardPool, run_jobs\n"
        "from repro.cluster.shard import run_sharded\n"
        "from repro.cluster.workload import WorkloadSpec\n"
        "def loaded():\n"
        "    return 'multiprocessing' in sys.modules\n"
        "class State:\n"
        "    loaded = staticmethod(loaded)\n"
        "specs = [JobSpec(n, '__main__:loaded') for n in 'abc']\n"
        "batches = [run_jobs(specs), run_jobs(specs, jobs=2)]\n"
        "assert [r.parallel for b in batches for r in b] == [False] * 3 + [True] * 3\n"
        "seen = [r.value for b in batches for r in b]\n"
        "for n in (1, 3):\n"
        "    states = [JobSpec(f's{i}', '__main__:State') for i in range(n)]\n"
        "    with ShardPool(states) as pool:\n"
        "        assert pool.pids.count(None) == 1\n"
        "        seen += pool.broadcast('loaded')\n"
        "result = run_sharded('repro.cluster.workload:build_workload_cluster', "
        "{'spec': WorkloadSpec(nnodes=4, seed=1), 'machine': 'smp1x2'}, "
        "nshards=2)\n"
        "assert result.maxrss_kb[1] > 0\n"
        "seen.append(loaded())"
    )
    assert fresh(code, "seen") == [False] * 11


@pytest.mark.parametrize("faults", [
    "None", "FaultPlan(seed=1, net=NetFaults(drop_p=0.1))",
], ids=["no-faults", "fault-plan"])
def test_a_shard_build_imports_nothing_its_builder_module_did_not(faults):
    """The coordinator imports the builder's module before
    ``run_sharded`` forks, so a forked shard's build imports nothing: a
    caller that holds a fault plan has loaded the fault layer too."""
    code = (
        "from repro.cluster.cluster import ShardSpec\n"
        "from repro.cluster.workload import WorkloadSpec, build_workload_cluster\n"
        + ("" if faults == "None" else "from repro.faults import FaultPlan, NetFaults\n")
        + "before = set(sys.modules)\n"
        "build_workload_cluster(ShardSpec(1, 2), spec=WorkloadSpec(nnodes=4, "
        f"requests_per_node=2, seed=1), machine='smp1x2', faults={faults})\n"
        "new = sorted(set(sys.modules) - before)"
    )
    assert fresh(code, "new") == []


def test_a_madmpi_world_without_faults_loads_no_baseline_and_no_fault_layer():
    code = (
        "from repro import Cluster, MadMPI, smp\n"
        "from repro.cluster.workload import WorkloadSpec, build_workload_cluster\n"
        "cluster = Cluster(2, machine_factory=lambda: smp(1, 2))\n"
        "MadMPI(cluster).comm(0)\n"
        "cluster.run()\n"
        "build_workload_cluster(None, spec=WorkloadSpec(nnodes=4, "
        "requests_per_node=2, seed=1), machine='smp1x2').run()"
    )
    loaded = fresh(code)
    assert under(loaded, ["repro.faults", "repro.mpi.baseline"]) == []
    assert "repro.mpi.madmpi" in loaded and "repro.cluster.cluster" in loaded


def test_bench_cli_loads_no_numpy():
    loaded = fresh("import repro.bench.cli")
    assert "numpy" not in loaded
    assert "repro.bench.cli" in loaded


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    missing = fresh(
        f"import {package} as pkg",
        "[n for n in pkg.__all__ if not hasattr(pkg, n) or n not in dir(pkg)]",
    )
    assert missing == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        repro.no_such_name


def read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def test_no_runtime_dependency():
    text = read(os.path.join(ROOT, "pyproject.toml"))
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert deps is not None and deps.group(1).strip() == ""
    importers = []
    for dirpath, _, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            for node in ast.walk(ast.parse(read(path))):
                if isinstance(node, ast.Import):
                    roots = [a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    roots = [node.module.split(".")[0]]
                else:
                    continue
                if "numpy" in roots:
                    importers.append(os.path.relpath(path, SRC))
    assert importers == []
