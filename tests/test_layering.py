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


def test_pools_load_no_fork_machinery_until_they_fork():
    assert "multiprocessing" not in fresh(POOL_IMPORT)
    # a serial batch and a one-state pool fork nothing either
    serial = (
        "from repro.par import JobSpec, ShardPool, run_jobs\n"
        "spec = JobSpec('one', 'repro.par.jobs:derive_seed', "
        "{'root_seed': 1, 'key': 'k'})\n"
        "assert run_jobs([spec, JobSpec('two', spec.target, spec.kwargs)])[1].ok\n"
        "with ShardPool([spec]) as pool:\n"
        "    assert pool.pids == [None]"
    )
    assert "multiprocessing" not in fresh(serial)
    # a forking batch loads it
    forked = (
        "from repro.par import JobSpec, run_jobs\n"
        "specs = [JobSpec(n, 'repro.par.jobs:derive_seed', "
        "{'root_seed': 1, 'key': n}) for n in 'ab']\n"
        "assert all(r.ok and r.parallel for r in run_jobs(specs, jobs=2))"
    )
    assert "multiprocessing" in fresh(forked)


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


def test_no_runtime_dependency():
    text = open(os.path.join(ROOT, "pyproject.toml")).read()
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert deps is not None and deps.group(1).strip() == ""
    importers = []
    for dirpath, _, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            for node in ast.walk(ast.parse(open(path).read())):
                if isinstance(node, ast.Import):
                    roots = [a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    roots = [node.module.split(".")[0]]
                else:
                    continue
                if "numpy" in roots:
                    importers.append(os.path.relpath(path, SRC))
    assert importers == []
