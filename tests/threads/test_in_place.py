"""In-place continuation: the scheduler runs a thread's next step itself
when ``Engine.claim`` proves nothing can fire first.

The identity corpus checks that no fingerprint moves; these tests pin
that the path runs at all (a claim that declined every time would keep
every fingerprint too) and compare whole worlds against runs where
every claim declines, so that every step is posted.
"""

import pytest

from repro.bench.hostperf import _idle_spin_scenario
from repro.cluster.workload import WorkloadSpec, build_workload_cluster
from repro.sim.engine import Engine


def _ring_world():
    """4 nodes in a closed request/reply ring, half rendezvous: threads,
    spinlocks, flags, nmad and the NICs all take part."""
    spec = WorkloadSpec(
        nnodes=4, requests_per_node=3, pattern="ring", arrival="closed",
        mean_gap_ns=0, think_ns=20_000, rdv_fraction=0.5, seed=3,
    )
    cluster = build_workload_cluster(None, spec=spec, machine="smp1x2")
    cluster.run(until=spec.suggest_until())
    return cluster.engine, cluster.registry.snapshot()


def _decline(monkeypatch):
    monkeypatch.setattr(Engine, "claim", lambda self, t, n=1: False)


def test_in_place_count_on_a_small_ring():
    """Two thirds of the ring's events run in place; a change that
    declines more (or runs more) in place moves this count."""
    engine, _ = _ring_world()
    assert engine.fired == 5637
    assert engine.claimed == 3696


def test_ring_in_place_matches_posting_every_step(monkeypatch):
    engine, snapshot = _ring_world()
    _decline(monkeypatch)
    posted, posted_snapshot = _ring_world()
    assert posted.claimed == 0
    assert (engine.fired, engine.now) == (posted.fired, posted.now)
    assert snapshot == posted_snapshot


@pytest.mark.parametrize("leap", [True, False], ids=["leap", "noleap"])
def test_spin_polling_in_place_matches_posting_every_step(monkeypatch, leap):
    """The quiescence leap replays idle cycles at the seqs the posted
    path allocates: claims stop at its consult threshold, so the leap
    sees the same world either way."""
    engines = []
    real_init = Engine.__init__

    def init(self):
        real_init(self)
        engines.append(self)

    monkeypatch.setattr(Engine, "__init__", init)
    kwargs = dict(name="spin", duration_us=150, gap_us=25, seed=17, leap=leap)
    fast = _idle_spin_scenario(**kwargs).fingerprint
    assert engines[0].claimed > 0
    _decline(monkeypatch)
    assert _idle_spin_scenario(**kwargs).fingerprint == fast
