"""Scheduler edge behaviours: doorbell bounds, quiesce, hook guards."""

from repro.core.manager import PIOMan
from repro.core.task import LTask, TaskOption
from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.threads.instructions import Compute, Sleep
from repro.threads.scheduler import Keypoint, Scheduler
from repro.topology import CpuSet
from repro.topology.builder import borderline


def _world(seed=2):
    m = borderline()
    eng = Engine()
    sched = Scheduler(m, eng, rng=Rng(seed))
    return m, eng, sched


def test_ring_cpuset_ignores_out_of_range_cores():
    m, eng, sched = _world()
    sched.ring_cpuset(CpuSet([2, 40]), from_core=0)  # 40 does not exist
    eng.run()  # no exception; the valid ring lands harmlessly


def test_idles_park_when_no_work_left():
    """With the hook attached but nothing pending, idle loops park and the
    heap drains (no busy-wait in virtual time)."""
    m, eng, sched = _world()
    pio = PIOMan(m, eng, sched)

    def body(ctx):
        yield Compute(1_000)

    sched.spawn(body, 0)
    eng.run()
    fired_after = eng.fired
    # nothing left: a further run is a no-op
    eng.run()
    assert eng.fired == fired_after


def test_repeat_polling_stops_when_app_exits():
    """A never-completing repeat task must not keep the engine alive after
    the last application thread finishes (idle quiesce)."""
    m, eng, sched = _world()
    pio = PIOMan(m, eng, sched)
    polls = []
    task = LTask(
        lambda t: (polls.append(1), False)[1],
        cpuset=CpuSet.single(2),
        options=TaskOption.REPEAT,
        name="forever",
    )

    def body(ctx):
        yield from pio.submit(0, task)
        yield Sleep(50_000)  # let it poll a while

    sched.spawn(body, 0)
    eng.run()  # must terminate despite the immortal repeat task
    assert polls, "the poll ran while the app lived"
    assert not task.done


def test_hook_injection_rate_limited():
    m, eng, sched = _world()
    pio = PIOMan(m, eng, sched)

    def a(ctx):
        for _ in range(6):
            yield Compute(100)
            from repro.threads.instructions import YieldCPU

            yield YieldCPU()

    def b(ctx):
        for _ in range(6):
            yield Compute(100)
            from repro.threads.instructions import YieldCPU

            yield YieldCPU()

    sched.spawn(a, 0)
    sched.spawn(b, 0)
    eng.run()
    # many context switches happened; injection fires on some but is
    # rate-limited well below one-per-switch
    switches = sched.cores[0].ctx_switches
    injections = sched.keypoint_count(Keypoint.CTX_SWITCH)
    assert switches >= 6
    assert 0 < injections < switches
