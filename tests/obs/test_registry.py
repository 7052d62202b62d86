"""MetricsRegistry: scraping, snapshot/diff round-trips, path stability."""

import itertools

import pytest

from repro.core.manager import PIOMan
from repro.core.queues import QueueStats
from repro.obs import Histogram, MetricsRegistry, union_snapshots
from repro.sim.engine import Engine
from repro.sync.stats import LockStats
from repro.threads.scheduler import Scheduler
from repro.topology import borderline


# ------------------------------------------------------------- scraping
def test_snapshot_flattens_dataclass_fields_and_dicts():
    reg = MetricsRegistry()
    st = QueueStats(enqueues=3, dequeues=2, dequeued_by={0: 1, 5: 1})
    reg.register("pioman.q:core0", st)
    snap = reg.snapshot()
    assert snap["pioman.q:core0.enqueues"] == 3
    assert snap["pioman.q:core0.dequeued_by.0"] == 1
    assert snap["pioman.q:core0.dequeued_by.5"] == 1


def test_snapshot_includes_numeric_properties():
    reg = MetricsRegistry()
    st = LockStats()
    st.note_acquire(0, contended=False)
    st.note_acquire(1, contended=True, spin_ns=50)
    reg.register("lock", st)
    snap = reg.snapshot()
    assert snap["lock.contention_ratio"] == pytest.approx(0.5)
    assert snap["lock.acquires"] == 2
    assert snap["lock.per_core_acquires.1"] == 1


def _columns(snapshot: dict) -> tuple:
    paths = sorted(snapshot)
    return paths, [snapshot[path] for path in paths]


def test_snapshot_and_shard_union_are_in_sorted_path_order():
    reg = MetricsRegistry()
    reg.register("b", {"z": 1, "a": 2})
    reg.register("a", {"y": 3})
    assert list(reg.snapshot().items()) == [("a.y", 3), ("b.a", 2), ("b.z", 1)]
    shards = [{"n1.x": 1, "n0.y": 2}, {"n2.a": 3, "n0.z": 4.5}, {}, {"n3.b": 7}]
    expected = sorted({k: v for shard in shards for k, v in shard.items()}.items())
    for order in itertools.permutations(shards):
        merged = union_snapshots([_columns(shard) for shard in order])
        assert list(merged.items()) == expected
    for dup in ([shards[0], {"n3.q": 0}, {"n0.y": 9}],
                [{"n0.y": 9}, {"n3.q": 0}, shards[0]],
                [{"a.x": 1, "n0.y": 2}, {"n3.q": 0}, {"m.a": 1, "n0.y": 9}]):
        with pytest.raises(ValueError, match=r"'n0.y' appears in more than one "
                           r"shard \(second occurrence in shard 2\)"):
            union_snapshots([_columns(shard) for shard in dup])


def test_columns_are_the_snapshot_items_in_order():
    """Nested mappings, a histogram (nested and as a source), a numeric
    property and a non-numeric leaf: ``columns()`` is the same scrape."""
    reg = MetricsRegistry()
    lock = LockStats()
    lock.note_acquire(0, contended=False)
    lock.note_acquire(1, contended=True, spin_ns=50)
    reg.register("lock", lock)
    hist = Histogram()
    for value in (3, 40, 500):
        hist.record(value)
    reg.register("wait", hist)
    reg.register("nested", {"b": {"z": 1, "a": {"deep": 2.5}}, "h": hist,
                            "flag": True, "name": "skipped"})
    reg.register("derived", lambda: {"ratio": 0.25})
    paths, values = reg.columns()
    assert paths == sorted(paths) and len(paths) == len(values)
    assert list(zip(paths, values)) == list(reg.snapshot().items())
    assert {"lock.contention_ratio", "wait.p50", "nested.h.count",
            "nested.b.a.deep", "nested.flag"} <= set(paths)
    assert MetricsRegistry().columns() == ([], [])


def test_callable_source_and_mapping_source():
    reg = MetricsRegistry()
    reg.register("derived", lambda: {"ratio": 0.25, "nested": {"a": 1}})
    reg.register("plain", {"x": 7})
    snap = reg.snapshot()
    assert snap["derived.ratio"] == 0.25
    assert snap["derived.nested.a"] == 1
    assert snap["plain.x"] == 7


def test_non_numeric_leaves_are_skipped():
    reg = MetricsRegistry()
    reg.register("src", {"name": "q:core0", "count": 1, "obj": object()})
    assert reg.snapshot() == {"src.count": 1}


# -------------------------------------------------------- registration
def test_duplicate_path_rejected_unless_replace():
    reg = MetricsRegistry()
    reg.register("a.b", {"x": 1})
    with pytest.raises(ValueError):
        reg.register("a.b", {"x": 2})
    reg.register("a.b", {"x": 2}, replace=True)
    assert reg.snapshot() == {"a.b.x": 2}
    reg.unregister("a.b")
    assert len(reg) == 0 and "a.b" not in reg


def test_invalid_paths_rejected():
    reg = MetricsRegistry()
    for bad in ("", ".lead", "trail."):
        with pytest.raises(ValueError):
            reg.register(bad, {"x": 1})


# ------------------------------------------------------------- diffing
def test_diff_shows_only_moved_counters():
    reg = MetricsRegistry()
    st = QueueStats()
    reg.register("q", st)
    before = reg.snapshot()
    st.enqueues += 4
    st.lost_races += 1
    after = reg.snapshot()
    delta = MetricsRegistry.diff(before, after)
    assert delta == {"q.enqueues": 4, "q.lost_races": 1}
    assert MetricsRegistry.diff(after, after) == {}


def test_diff_treats_missing_keys_as_zero():
    a = {"x": 3}
    b = {"x": 3, "y": 2}
    assert MetricsRegistry.diff(a, b) == {"y": 2}
    assert MetricsRegistry.diff(b, a) == {"y": -2}


# ----------------------------------------------- dot-path stability
def test_pioman_registration_paths_are_stable():
    """The dot-paths below are a public contract — regression gates and
    dashboards key on them.  Renaming any of these is an API change."""
    machine = borderline()
    engine = Engine()
    reg = MetricsRegistry()
    sched = Scheduler(machine, engine, registry=reg)
    PIOMan(machine, engine, sched, registry=reg)
    snap = reg.snapshot()
    expected = [
        "pioman.submits",
        "pioman.tasks_completed",
        "pioman.schedule_passes",
        "pioman.q:machine.lost_races",
        "pioman.q:machine.lock.contention_ratio",
        "pioman.q:machine.lock.mem.invalidations",
        "pioman.q:machine.mem.reads",
        "pioman.q:core#0.enqueues",
        "pioman.q:chip#0.lock.acquires",
        "sched.node0.core0.busy_ns",
        "sched.node0.core0.keypoints.idle",
    ]
    for path in expected:
        assert path in snap, f"missing stable path {path}"


def test_report_groups_by_top_segment():
    reg = MetricsRegistry()
    reg.register("pioman", {"submits": 2})
    reg.register("sched.node0", {"busy": 10})
    text = reg.report()
    assert "== pioman ==" in text and "== sched ==" in text
    assert "submits" in text
    assert MetricsRegistry().report() == "(no metrics registered)"


def test_invalid_paths_rejected_extended():
    reg = MetricsRegistry()
    for bad in ("a..b", " lead", "trail ", "a. .b", "\tq"):
        with pytest.raises(ValueError):
            reg.register(bad, {"x": 1})
    # a path that is merely unusual is fine
    reg.register("q:machine.lock", {"x": 1})


def test_unregister_unknown_path_is_noop():
    reg = MetricsRegistry()
    reg.register("a", {"x": 1})
    reg.unregister("nope")
    assert "a" in reg and len(reg) == 1


def test_diff_with_float_valued_derived_metrics():
    reg = MetricsRegistry()
    st = LockStats()
    st.note_acquire(0, contended=False)
    reg.register("lock", st)
    before = reg.snapshot()
    st.note_acquire(1, contended=True, spin_ns=80)
    after = reg.snapshot()
    delta = MetricsRegistry.diff(before, after)
    assert delta["lock.acquires"] == 1
    assert delta["lock.contention_ratio"] == pytest.approx(0.5)
    assert "lock.uncontended" not in delta  # unchanged counters omitted


def test_report_orders_groups_and_entries_by_topology():
    """Satellite (c): report headers follow machine topology (core < chip
    < node < global), not lexicographic order; dot-paths are untouched."""
    reg = MetricsRegistry()
    reg.register("pioman.q:machine", {"v": 1})
    reg.register("pioman.q:chip#1", {"v": 1})
    reg.register("pioman.q:chip#0", {"v": 1})
    reg.register("pioman.q:core#10", {"v": 1})
    reg.register("pioman.q:core#2", {"v": 1})
    reg.register("sched.node0", {"busy": 1})
    text = reg.report()
    # pioman group: cores (numeric order) before chips before machine
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    order = [ln.split(" ")[0] for ln in lines if ln.startswith("q:")]
    assert order == [
        "q:core#2.v",
        "q:core#10.v",
        "q:chip#0.v",
        "q:chip#1.v",
        "q:machine.v",
    ]
    assert lines.index("== pioman ==") < lines.index("== sched ==")
    snap = reg.snapshot()
    assert "pioman.q:core#10.v" in snap  # paths themselves unchanged
