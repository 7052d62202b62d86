"""Discrete-event simulation substrate.

Every other subsystem (topology-aware memory model, spinlocks, the thread
scheduler, NICs, PIOMan itself) runs on top of this engine.  The engine
maintains a virtual clock in **nanoseconds** and a queue of pending
events: a same-instant FIFO over one binary heap.  Runs are fully
deterministic: ties on the timestamp are broken by a monotonically
increasing sequence number, and randomness comes from
seeded :class:`Rng` streams, one per entity (a wire rail, a node's
scheduler, a node's fault types), each derived from the run's seed with
:meth:`Rng.fork` or :func:`repro.par.derive_seed` — so an entity draws
the same numbers whichever shard simulates it.

The simulated time unit is the nanosecond throughout the whole project;
helpers :data:`US` and :data:`MS` exist for readability.

This package imports nothing above it: the stall diagnostics
:mod:`repro.sim.debug` and the run reports :mod:`repro.sim.report`, which
read schedulers and PIOMan, load on first access.
"""

from repro.sim.engine import Engine, Event, SimulationError, DeadlockError
from repro.sim.rng import Rng
from repro.sim.trace import Tracer, TraceRecord
from repro.sim.units import NS, US, MS, SEC, fmt_ns
from repro import _lazy

__getattr__, __dir__ = _lazy(__name__, {
    "repro.sim.debug": ("debug",),
    "repro.sim.report": ("report",),
})

__all__ = [
    "Engine",
    "Event",
    "SimulationError",
    "DeadlockError",
    "Rng",
    "Tracer",
    "TraceRecord",
    "report",
    "debug",
    "NS",
    "US",
    "MS",
    "SEC",
    "fmt_ns",
]
