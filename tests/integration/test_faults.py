"""repro.faults determinism contract.

Three guarantees, each load-bearing for the bench matrix and CI:

* **off = bit-identical** — a run with no plan, an empty plan, and a
  zero-probability plan all execute the exact same instruction stream
  (the hooks are guarded and zero-probability branches never draw from
  the RNG);
* **on = deterministic** — every fault variant replays bit-identically
  for the same seed, fault counters included;
* **parallel = serial** — fanning fault scenarios out over worker
  processes (``--jobs N``) changes nothing but wall-clock time.
"""

import re

import pytest

from repro.bench.hostperf import (
    _fault_net_scenario,
    _fault_storm_scenario,
    _submit_wait_scenario,
)
from repro.cluster.cluster import Cluster
from repro.faults import FaultPlan
from repro.faults.plan import CancelStorm, LockPreemption, NetFaults, SlowCores
from repro.mpi import MadMPI
from repro.obs.registry import MetricsRegistry
from repro.par import JobSpec, has_fork, run_jobs_strict
from repro.sim.trace import Tracer

#: process-global ids (request/frame seq) are unique per process, not per
#: run — normalize them like the golden determinism test does
_GLOBAL_ID = re.compile(r"#\d+")


def _exchange(seed: int, faults):
    """A small seeded 2-node eager exchange; returns every observable."""
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    cl = Cluster(2, seed=seed, tracer=tracer, registry=registry, faults=faults)
    mpi = MadMPI(cl)
    c0, c1 = mpi.comm(0), mpi.comm(1)
    done = []

    def sender(ctx):
        for i in range(6):
            yield from c0.send(ctx.core_id, 1, i, 4096, payload=b"x")
        done.append("send")

    def receiver(ctx):
        for i in range(6):
            yield from c1.recv(ctx.core_id, 0, i)
        done.append("recv")

    cl.nodes[0].scheduler.spawn(sender, 0)
    cl.nodes[1].scheduler.spawn(receiver, 0)
    cl.run(until=100_000_000)
    assert sorted(done) == ["recv", "send"]
    trace = [
        _GLOBAL_ID.sub("#", f"{r.time} {r.category} {r.actor} {r.message}")
        for r in tracer.records
    ]
    snapshot = {
        k: v for k, v in registry.snapshot().items() if "faults" not in k
    }
    return cl.engine.fired, cl.engine.now, snapshot, trace


def test_faults_off_is_bit_identical_to_no_plan():
    """No plan, an empty plan, and a zero-probability plan must all run
    the exact same simulation — enabling the subsystem without enabling
    any fault is free, by construction and by this test."""
    baseline = _exchange(17, None)
    empty = _exchange(17, FaultPlan(seed=99))
    zero_p = _exchange(
        17, FaultPlan(seed=99, net=NetFaults(drop_p=0.0, reorder_p=0.0))
    )
    assert empty == baseline
    assert zero_p == baseline


def test_faulty_run_differs_and_counts_faults():
    baseline = _exchange(17, None)
    faulty = _exchange(
        17, FaultPlan(seed=99, net=NetFaults(drop_p=0.3, reorder_p=0.3))
    )
    assert faulty != baseline  # the faults actually happened
    # and deterministically so
    assert _exchange(
        17, FaultPlan(seed=99, net=NetFaults(drop_p=0.3, reorder_p=0.3))
    ) == faulty


#: every fault variant as a (callable, kwargs) pair — small but non-trivial
_VARIANTS = [
    ("net", _fault_net_scenario,
     dict(name="net", msgs=6, size=4096, drop_p=0.2, reorder_p=0.25, seed=13)),
    ("slowcore", _submit_wait_scenario,
     dict(name="slowcore", machine="borderline", cpuset="global", reps=20,
          seed=14, horizon_ns=2_000_000, slow_cores=(1, 3), factor=3.0)),
    ("storm", _fault_storm_scenario,
     dict(name="storm", decoys=10, gap_us=20, seed=15)),
]


@pytest.mark.parametrize("label,fn,kwargs", _VARIANTS, ids=[v[0] for v in _VARIANTS])
def test_fault_variant_reruns_bit_identically(label, fn, kwargs):
    a = fn(**kwargs)
    b = fn(**kwargs)
    assert a.fingerprint == b.fingerprint
    assert a.virtual_ns == b.virtual_ns


def test_fault_fingerprints_show_nonzero_fault_activity():
    """The variants exist to exercise faults — each must show its kind."""
    net = _fault_net_scenario(
        name="net", msgs=6, size=4096, drop_p=0.2, reorder_p=0.25, seed=13
    )
    assert net.fingerprint["drops"] > 0
    assert net.fingerprint["retransmits"] > 0
    slow = _submit_wait_scenario(
        name="slowcore", machine="borderline", cpuset="global", reps=20,
        seed=14, horizon_ns=2_000_000, slow_cores=(1, 3), factor=3.0,
    )
    assert slow.fingerprint["slow_cores"] == 2
    storm = _fault_storm_scenario(name="storm", decoys=10, gap_us=20, seed=15)
    assert storm.fingerprint["cancel_hits"] > 0
    assert storm.fingerprint["lock_preemptions"] > 0


@pytest.mark.skipif(not has_fork(), reason="platform lacks fork")
def test_fault_variants_identical_under_jobs_fanout():
    """``--jobs N`` must not perturb a single fault draw."""
    mod = "repro.bench.hostperf"
    specs = [
        JobSpec(name=label, target=f"{mod}:{fn.__name__}", kwargs=kwargs)
        for label, fn, kwargs in _VARIANTS
    ]
    serial = run_jobs_strict(specs, jobs=1)
    fanned = run_jobs_strict(specs, jobs=3)
    for s, p in zip(serial, fanned):
        assert s.fingerprint == p.fingerprint
