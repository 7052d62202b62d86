"""Quiescence leap (repro.core.leap): bit-identity fuzz + fallbacks.

The leap's entire contract is "the slow path would have produced exactly
this": leap-on and leap-off runs must agree on every observable — the
full metrics snapshot (no counters stripped), events fired, final
virtual time, the engine's internal seq/live accounting and the
scheduler's run-queue arrival numbering.  These tests drive randomized
workloads across topologies (including the 24-core chiplet machine the
leap was built for) and fault plans, and assert that agreement to the
bit.
"""

import random
import sys

import pytest

from repro.core.leap import QuiescenceLeap
from repro.core.manager import PIOMan
from repro.core.task import LTask
from repro.faults.inject import FaultInjector
from repro.faults.plan import CancelStorm, FaultPlan, LockPreemption, SlowCores
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.sim.trace import Tracer
from repro.threads.instructions import Compute
from repro.threads.scheduler import Scheduler
from repro.topology.builder import MACHINES
from repro.topology.cpuset import CpuSet


def _run(
    *,
    leap: bool,
    machine_name: str = "ccx24",
    seed: int = 7,
    duration_us: int = 400,
    gaps_us=(25,),
    plan: FaultPlan = None,
    tracer: Tracer = None,
    drive=None,
):
    """One seeded spin-polling run; returns every observable we gate on.

    ``drive(engine, duration)`` replaces the single
    ``engine.run(until=duration)`` (bounded runs in several calls).
    ``replayed`` counts the events the leap replayed instead of firing:
    the engine's ``fired`` delta across successful attempts.  Each
    successful attempt must leave the engine's queue a valid heap."""
    duration = duration_us * 1_000
    machine = MACHINES[machine_name]()
    engine = Engine()
    registry = MetricsRegistry()
    # NB: an empty Tracer is falsy (it has __len__), so `tracer or ...`
    # would silently drop an enabled-but-empty tracer
    if tracer is None:
        tracer = Tracer(enabled=False)
    sched = Scheduler(
        machine, engine, rng=Rng(seed), true_spin=True, registry=registry,
        tracer=tracer,
    )
    pioman = PIOMan(machine, engine, sched, registry=registry,
                    quiescence_leap=leap)
    if plan is not None:
        FaultInjector(plan).install(scheduler=sched, pioman=pioman,
                                    registry=registry)
    ncores = machine.ncores

    def driver(ctx):
        i = 0
        while engine.now < duration:
            yield Compute(gaps_us[i % len(gaps_us)] * 1_000)
            task = LTask(
                None,
                cpuset=CpuSet.single(1 + (5 * i + 3) % (ncores - 1)),
                name=f"fuzz{i}",
            )
            yield from pioman.submit(0, task)
            i += 1

    sched.spawn(driver, 0, name="fuzz-driver")
    replayed = 0
    attempt = QuiescenceLeap.attempt

    def counted(leap, hi):
        nonlocal replayed
        fired0 = leap.engine.fired
        ok = attempt(leap, hi)
        if ok:
            replayed += leap.engine.fired - fired0
            # carriers re-armed at explicit seqs kept the queue's heap order
            b = leap.engine._q
            assert all(b[(i - 1) // 2] <= b[i] for i in range(1, len(b)))
        return ok

    QuiescenceLeap.attempt = counted
    try:
        if drive is None:
            engine.run(until=duration)
        else:
            drive(engine, duration)
    finally:
        QuiescenceLeap.attempt = attempt
    return {
        "fired": engine.fired,
        "now": engine.now,
        "seq": engine._seq,
        "live": engine._live,
        "rr": sched._rr_seq,
        "snapshot": registry.snapshot(),
        "leaps": engine.leap.leaps if engine.leap is not None else 0,
        "replayed": replayed,
    }


def _assert_identical(on: dict, off: dict) -> None:
    assert on["fired"] == off["fired"], "event counts diverged"
    assert on["now"] == off["now"], "final virtual time diverged"
    assert on["seq"] == off["seq"], "engine seq allocation diverged"
    assert on["live"] == off["live"], "live-event accounting diverged"
    assert on["rr"] == off["rr"], "run-queue arrival numbering diverged"
    if on["snapshot"] != off["snapshot"]:
        diffs = {
            k: (on["snapshot"].get(k), off["snapshot"].get(k))
            for k in set(on["snapshot"]) | set(off["snapshot"])
            if on["snapshot"].get(k) != off["snapshot"].get(k)
        }
        raise AssertionError(f"metrics snapshot diverged: {diffs}")


#: fault plans the fuzz sweep draws from (None = clean world).  Slow
#: cores stretch the idle pass cost per core (exercising the skewed
#: eligibility + resume paths); storms + lock preemption interleave
#: cancel events with the idle carriers the leap elides.
_PLANS = [
    None,
    FaultPlan(seed=5, slow_cores=SlowCores(cores=(2, 7), factor=2.5)),
    FaultPlan(
        seed=9,
        lock_preemption=LockPreemption(p=0.25, window_ns=30_000),
        cancel_storm=CancelStorm(count=4, interval_ns=60_000, start_ns=20_000),
    ),
]


def test_leap_identity_fuzz():
    """Randomized sweep: topologies x fault plans x seeds.

    Config sampling is itself seeded, so a failure reproduces; each
    sampled config runs leap-on vs leap-off and must agree on every
    observable.  At least one sampled run must actually leap, or the
    whole sweep is vacuous.
    """
    rng = random.Random(0xC0FFEE)
    total_leaps = 0
    for trial in range(8):
        cfg = dict(
            machine_name=rng.choice(["ccx24", "borderline", "kwak"]),
            seed=rng.randrange(1_000_000),
            duration_us=rng.choice([200, 350, 500]),
            # sub-window gaps: leaps that start and end inside one
            # 4096 ns retry window
            gaps_us=rng.choice([(25,), (40,), (15, 60), (10, 30, 80), (2,), (3, 7)]),
            plan=rng.choice(_PLANS),
        )
        on = _run(leap=True, **cfg)
        off = _run(leap=False, **cfg)
        assert off["leaps"] == 0
        try:
            _assert_identical(on, off)
        except AssertionError as exc:
            raise AssertionError(f"trial {trial} config {cfg}: {exc}") from exc
        total_leaps += on["leaps"]
    assert total_leaps > 0, "fuzz sweep never leaped — gates are too strict"


def test_leap_identity_ccx24():
    """The headline config: deep chiplet machine, long idle stretches.
    Identity must hold and the leap must engage."""
    on = _run(leap=True, duration_us=600)
    off = _run(leap=False, duration_us=600)
    _assert_identical(on, off)
    assert on["leaps"] > 0


def _mid_window_bounds(engine, duration):
    """``run(until=...)`` in steps that never land on a 4096 ns window
    edge, so consults and leaps meet the bound inside a retry window."""
    t = 0
    while t < duration:
        t = min(t + 9_973, duration)
        engine.run(until=t)


@pytest.mark.parametrize("gaps_us", [(2,), (3, 7), (25,)])
def test_leap_identity_mid_bucket_bounds(gaps_us):
    """Bounded runs whose ``until`` falls mid-window: the leap stops at
    ``until + 1`` and resumes in the next call, identical to leap-off."""
    on = _run(leap=True, duration_us=300, gaps_us=gaps_us, drive=_mid_window_bounds)
    off = _run(leap=False, duration_us=300, gaps_us=gaps_us, drive=_mid_window_bounds)
    _assert_identical(on, off)
    assert on["leaps"] > 0
    # the bounds leave the world as one unbounded-to-duration run would
    whole = _run(leap=False, duration_us=300, gaps_us=gaps_us)
    _assert_identical(on, whole)


@pytest.mark.parametrize("leap", [True, False])
def test_golden_determinism_each_setting(leap):
    """Same seed, run twice, each leap setting: bit-identical with itself
    (the leap cannot introduce host-order nondeterminism)."""
    a = _run(leap=leap, seed=1234)
    b = _run(leap=leap, seed=1234)
    _assert_identical(a, b)
    assert a["leaps"] == b["leaps"]


def test_tracer_enabled_falls_back_to_slow_path():
    """A tracer-enabled run must never leap (the trace stream records
    every idle wake) — and still match the traced leap-off run."""
    on = _run(leap=True, tracer=Tracer(enabled=True), duration_us=200)
    off = _run(leap=False, tracer=Tracer(enabled=True), duration_us=200)
    assert on["leaps"] == 0
    _assert_identical(on, off)


def test_consults_once_per_window_with_a_clock_advance(monkeypatch):
    """The consult rule: the run loop consults the leap at the first
    clock advance past ``next_try``, and a declined attempt retries no
    earlier than the end of the 4096 ns window that holds the event it
    was consulted for.  With the tracer on every attempt declines, so
    there is exactly one consult per window in which the clock advances,
    made at that window's first advance.

    Clock advances are observed apart from the leap: a profile hook
    reads the clock at every call the run loop makes (each callback it
    fires, and its own helpers, which only see values already reached).
    """
    consults = []  # (clock before the advance, advance target)
    attempt = QuiescenceLeap.attempt

    def consult(leap, hi):
        consults.append((leap.engine.now, leap.engine.peek_time()))
        return attempt(leap, hi)

    monkeypatch.setattr(QuiescenceLeap, "attempt", consult)
    run_code = Engine.run.__code__
    seen = set()

    def drive(engine, duration):
        def hook(frame, event, _arg):
            caller = frame if event == "c_call" else frame.f_back
            if caller is not None and caller.f_code is run_code:
                seen.add(engine.now)

        sys.setprofile(hook)
        try:
            engine.run(until=duration)
        finally:
            sys.setprofile(None)

    out = _run(leap=True, tracer=Tracer(enabled=True), duration_us=80,
               gaps_us=(12,), drive=drive)
    assert out["leaps"] == 0
    first = {}  # window -> its first advance
    for t in sorted(seen - {0}):
        first.setdefault(t >> 12, t)
    assert [t for _now, t in consults] == sorted(first.values())
    assert all(now < t for now, t in consults)
    assert len(consults) == 20  # every window of the 80 us run


def test_constructor_opt_out_installs_no_controller():
    machine = MACHINES["ccx24"]()
    engine = Engine()
    sched = Scheduler(machine, engine, rng=Rng(3), true_spin=True)
    PIOMan(machine, engine, sched, quiescence_leap=False)
    assert engine.leap is None


def test_leap_actually_elides_events():
    """Not a tautology check: the leap-on run must execute far fewer
    events on the host than it reports ``fired`` — the rest are
    replayed (``test_leap_identity_ccx24`` pins that total to the slow
    path's)."""
    on = _run(leap=True, duration_us=600)
    # with 23 spin-polling cores and sparse submits, the vast majority
    # of idle cycles are elidable: executed share at most 10%
    executed = on["fired"] - on["replayed"]
    assert executed <= 0.10 * on["fired"], (executed, on["fired"])
