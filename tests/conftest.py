"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.threads.scheduler import Scheduler
from repro.topology.builder import borderline, kwak, smp


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def machine():
    """Default small machine for scheduler-level tests."""
    return borderline()


@pytest.fixture
def kwak_machine():
    return kwak()


@pytest.fixture
def tiny_machine():
    """2 chips x 2 cores — smallest machine with a real hierarchy."""
    return smp(2, 2, name="tiny")


@pytest.fixture
def sched(machine, engine):
    return Scheduler(machine, engine, rng=Rng(42))


def run_thread(machine, body, *, core=0, until=None, seed=42, engine=None):
    """Spawn one thread and run the engine to completion.

    Returns ``(result, engine)`` — the generator's return value and the
    engine (for clock inspection).
    """
    eng = engine if engine is not None else Engine()
    scheduler = Scheduler(machine, eng, rng=Rng(seed))
    thread = scheduler.spawn(body, core, name="test-main")
    eng.run(until=until)
    assert not thread.alive, f"test thread did not finish: {thread!r}"
    return thread.result, eng


def run_threads(machine, bodies, *, until=None, seed=42):
    """Spawn ``bodies`` as ``(body, core)`` pairs; returns (threads, engine)."""
    eng = Engine()
    scheduler = Scheduler(machine, eng, rng=Rng(seed))
    threads = [
        scheduler.spawn(body, core, name=f"test-t{i}")
        for i, (body, core) in enumerate(bodies)
    ]
    eng.run(until=until)
    return threads, eng
