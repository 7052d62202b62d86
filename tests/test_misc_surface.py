"""Miscellaneous public-surface behaviours not covered elsewhere."""

import pytest

from repro.core.queues import TaskQueue
from repro.nmad.requests import PacketWrapper, PwKind
from repro.net.driver import IB_CONNECTX
from repro.net.fabric import Fabric
from repro.net.frame import Frame
from repro.sim.engine import Engine
from repro.sim.rng import Rng
from repro.topology import CpuSet, kwak, nehalem_ex_64
from repro.topology.cpuset import EMPTY


def test_cpuset_empty_export():
    assert not EMPTY and len(EMPTY) == 0


def test_machine_describe_kwak():
    text = kwak().describe()
    assert "l3#3" in text and "numa#0" in text


def test_machine_describe_64core():
    text = nehalem_ex_64().describe()
    assert "core#63" in text


def test_wire_jitter_is_deterministic_per_seed():
    def sample(seed):
        eng = Engine()
        fabric = Fabric(eng, rng=Rng(seed))
        nic = fabric.new_nic(0, IB_CONNECTX)
        fabric.new_nic(1, IB_CONNECTX)
        return [fabric.wire_ns(nic, Frame("eager", 0, 1, 1024)) for _ in range(5)]

    assert sample(3) == sample(3)
    assert sample(3) != sample(4)


def test_packet_wrapper_arm_reuse():
    pw = PacketWrapper(PwKind.EAGER, 1, 256)
    t1 = pw.arm(lambda t: True, CpuSet.single(2), cost_ns=100)
    assert t1 is pw.ltask and t1.cost_ns == 100 and list(t1.cpuset) == [2]
    # simulate a completed run, then re-arm without allocation
    t1.state = __import__("repro.core.task", fromlist=["TaskState"]).TaskState.DONE
    t2 = pw.arm(lambda t: True, CpuSet.single(4), cost_ns=50)
    assert t2 is t1 and list(t2.cpuset) == [4] and t2.cost_ns == 50


def test_gate_send_seq_monotone_per_tag():
    from repro.nmad.gate import Gate

    eng = Engine()
    fabric = Fabric(eng)
    a = fabric.new_nic(0, IB_CONNECTX)
    fabric.new_nic(1, IB_CONNECTX)
    g = Gate(0, 1, [a])
    assert [g.next_send_seq(7) for _ in range(3)] == [0, 1, 2]
    assert g.next_send_seq(8) == 0  # independent per tag


def test_format_microbench_without_shares():
    from repro.bench.reporting import format_microbench
    from repro.bench.task_microbench import MicrobenchResult, RowResult

    res = MicrobenchResult(machine="x", ncores=2)
    res.per_core.append(RowResult("core#0", [0], 700.0, 690, 710))
    text = format_microbench(res)
    assert "core#0" in text and "execution shares" not in text


def test_tracer_dump_filtering():
    from repro.sim.trace import Tracer

    t = Tracer(enabled=True)
    t.emit(1, "a", "x", "one")
    t.emit(2, "b", "y", "two")
    assert "one" in t.dump(["a"]) and "two" not in t.dump(["a"])


def test_enqueue_nowait_transitions():
    from repro.core.task import LTask

    m = kwak()
    eng = Engine()
    q = TaskQueue(m, eng, m.root)
    task = LTask(None, cpuset=m.all_cores(), name="h")
    q.enqueue_nowait(0, task)
    assert len(q) == 1 and q.stats.enqueues == 1
    assert q.probe(0)[0] is True  # writer sees it immediately
