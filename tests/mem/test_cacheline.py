"""Cache-line model: hit/miss costs, invalidation, async stores."""

from hypothesis import given, strategies as st

from repro.mem.cacheline import CacheLine, MemStats
from repro.topology.builder import kwak


def _line(home=0):
    return CacheLine(kwak(), home=home, name="t")


def test_initial_owner_reads_locally():
    m = kwak()
    line = CacheLine(m, home=3)
    assert line.read(3) == m.spec.local_ns


def test_remote_read_pays_transfer_then_hits():
    m = kwak()
    line = CacheLine(m, home=0)
    first = line.read(15)
    assert first == m.xfer(0, 15)
    assert line.read(15) == m.spec.local_ns  # now shared


def test_write_invalidates_sharers():
    m = kwak()
    line = CacheLine(m, home=0)
    line.read(4)
    line.read(8)
    cost = line.write(0)
    # owner holds a copy; pays the farthest invalidation ack
    assert cost >= max(m.xfer(0, 4), m.xfer(0, 8))
    # sharers gone: their next read misses again
    assert line.read(4) == m.xfer(0, 4)


def test_exclusive_write_is_local():
    m = kwak()
    line = CacheLine(m, home=2)
    assert line.write(2) == m.spec.local_ns


def test_write_by_non_sharer_fetches_first():
    m = kwak()
    line = CacheLine(m, home=0)
    cost = line.write(12)
    assert cost >= m.xfer(0, 12)
    assert line.owner == 12 and line.sharers == 1 << 12


def test_write_async_charges_local_but_moves_ownership():
    m = kwak()
    line = CacheLine(m, home=0)
    line.read(9)
    cost = line.write_async(9)
    assert cost == m.spec.local_ns
    assert line.owner == 9 and line.sharers == 1 << 9
    # the displaced copy now misses
    assert line.read(0) == m.xfer(9, 0)


def test_rmw_adds_cas_cost():
    m = kwak()
    line = CacheLine(m, home=0)
    assert line.rmw(0) == m.spec.local_ns + m.spec.cas_ns


def test_stats_accumulate():
    stats = MemStats()
    m = kwak()
    line = CacheLine(m, home=0, stats=stats)
    line.read(1)
    line.read(1)
    line.write(2)
    assert stats.reads == 2
    assert stats.read_misses == 1 and stats.read_hits == 1
    assert stats.writes == 1
    assert stats.invalidations == 2  # cores 0 and 1 lost their copies


def test_shared_stats_object_across_lines():
    stats = MemStats()
    m = kwak()
    l1 = CacheLine(m, home=0, stats=stats)
    l2 = CacheLine(m, home=1, stats=stats)
    l1.read(2)
    l2.read(2)
    assert stats.reads == 2


@given(st.lists(st.tuples(st.sampled_from(["r", "w", "a"]),
                          st.integers(min_value=0, max_value=15)),
                min_size=1, max_size=60))
def test_property_costs_positive_and_owner_consistent(ops):
    m = kwak()
    line = CacheLine(m, home=0)
    for op, core in ops:
        if op == "r":
            cost = line.read(core)
            assert line.sharers >> core & 1
        elif op == "w":
            cost = line.write(core)
            assert line.owner == core and line.sharers == 1 << core
        else:
            cost = line.write_async(core)
            assert line.owner == core and line.sharers == 1 << core
        assert cost >= m.spec.local_ns
        assert line.sharers >> line.owner & 1


class _SetLine:
    """The line as an owner plus a ``set`` of sharers, farthest
    acknowledgement by a scan: the reference the bitmask must match."""

    def __init__(self, m, home):
        self.m, self.owner, self.sharers = m, home, {home}

    def read(self, core):
        if core in self.sharers:
            return self.m.spec.local_ns
        self.sharers.add(core)
        return self.m.xfer(self.owner, core)

    def write(self, core):
        if self.sharers == {core}:
            return self.m.spec.local_ns
        cost = self.m.spec.local_ns if core in self.sharers else self.m.xfer(self.owner, core)
        cost += max(self.m.xfer(core, s) for s in self.sharers - {core})
        self.owner, self.sharers = core, {core}
        return cost

    def write_async(self, core):
        self.owner, self.sharers = core, {core}
        return self.m.spec.local_ns


@given(st.sampled_from(["kwak", "ccx24"]),
       st.lists(st.tuples(st.sampled_from(["read", "write", "write_async"]),
                          st.integers(min_value=0, max_value=23)),
                min_size=1, max_size=80))
def test_property_bitmask_matches_a_set_of_sharers(name, ops):
    """Costs, owner and membership equal the set model's on a 4-level
    and a 5-level machine, whatever the order of accesses."""
    from repro.topology import MACHINES

    m = MACHINES[name]()
    line, ref = CacheLine(m, home=0), _SetLine(m, 0)
    for op, core in ops:
        core %= m.ncores
        assert getattr(line, op)(core) == getattr(ref, op)(core)
        assert line.owner == ref.owner
        assert line.sharers == sum(1 << c for c in ref.sharers)
