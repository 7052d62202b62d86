"""Cluster harness: assembly, shared clock, NIC lookup."""

import pytest

from repro.cluster.cluster import Cluster
from repro.net.driver import IB_CONNECTX, MYRI10G_MX
from repro.threads.instructions import Compute
from repro.topology.builder import kwak


def test_default_two_node_cluster():
    cl = Cluster(2)
    assert len(cl.nodes) == 2
    assert cl.nodes[0].machine.spec.name == "borderline"
    assert len(cl.nodes[0].nics) == 1


def test_nodes_share_engine_and_fabric():
    cl = Cluster(3)
    assert all(n.engine is cl.engine for n in cl.nodes)
    assert len(cl.fabric.nics()) == 3


def test_machine_factory_and_drivers():
    cl = Cluster(2, machine_factory=kwak, drivers=(IB_CONNECTX, MYRI10G_MX))
    assert cl.nodes[0].machine.ncores == 16
    assert len(cl.nodes[1].nics) == 2
    assert cl.nodes[1].nic_by_driver("mx").driver.name == "mx"
    with pytest.raises(KeyError):
        cl.nodes[1].nic_by_driver("elan")


def test_zero_nodes_rejected():
    with pytest.raises(ValueError):
        Cluster(0)


def test_each_node_has_own_pioman_and_scheduler():
    cl = Cluster(2)
    assert cl.nodes[0].pioman is not cl.nodes[1].pioman
    assert cl.nodes[0].scheduler is not cl.nodes[1].scheduler
    assert cl.nodes[0].scheduler.progression_hook is not None


def test_shared_virtual_clock_across_nodes():
    cl = Cluster(2)
    stamps = {}

    def a(ctx):
        yield Compute(10_000)
        stamps["a"] = ctx.now

    def b(ctx):
        yield Compute(20_000)
        stamps["b"] = ctx.now

    cl.nodes[0].scheduler.spawn(a, 0)
    cl.nodes[1].scheduler.spawn(b, 0)
    cl.run()
    assert stamps["a"] == 10_000 and stamps["b"] == 20_000


def test_run_until_bound():
    cl = Cluster(2)

    def spin(ctx):
        yield Compute(10_000_000)

    cl.nodes[0].scheduler.spawn(spin, 0)
    assert cl.run(until=1_000_000) == 1_000_000


def test_run_until_before_now_is_refused():
    cl = Cluster(2)

    def spin(ctx):
        yield Compute(10_000_000)

    cl.nodes[0].scheduler.spawn(spin, 0)
    cl.run(until=1_000_000)
    with pytest.raises(ValueError, match="the clock is at 1000000 ns"):
        cl.run(until=500_000)
    assert cl.engine.now == 1_000_000
