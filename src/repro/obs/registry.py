"""The metrics registry — one place to see every counter.

The paper's argument is carried by measured scheduler internals: lock
contention on the global queue, empty-check traffic, per-core execution
shares (§IV-A, Tables I/II).  Those counters already exist — ``QueueStats``,
``LockStats``, ``MemStats``, ``PIOManStats``, ``NicStats`` ... — but each
lives on its own object.  A :class:`MetricsRegistry` gives them a common
address space:

* stats-bearing objects **register** under a dot-path at construction
  (``pioman.q:core#0``, ``sched.node0``, ``nic.ib@node0.0``);
* :meth:`snapshot` scrapes every source into a flat
  ``{"pioman.q:core#0.lost_races": 3, ...}`` mapping, ready for JSON;
  :meth:`columns` is the same scrape as two aligned lists, sorted paths
  and their values, the form a shard ships;
* :meth:`diff` subtracts two snapshots and keeps only the counters that
  moved — the regression-gate primitive for perf PRs;
* :meth:`report` renders a topology-grouped human view.

Sources may be plain stats objects (dataclasses or ``__slots__`` classes),
mappings, or zero-argument callables returning a mapping (used for derived
metrics such as :meth:`repro.core.manager.PIOMan.execution_shares`).
Numeric ``property`` descriptors on a stats class (e.g.
``LockStats.contention_ratio``) are scraped too, so derived ratios appear
next to their raw counters.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Callable, Mapping, Optional, Union

Number = Union[int, float]
MetricSource = Union[object, Mapping[str, Any], Callable[[], Mapping[str, Any]]]


def _is_summarizable(value: Any) -> bool:
    """Distribution objects (histograms) summarize themselves via
    ``to_metrics()`` — duck-typed so any HDR-style sketch plugs in."""
    return callable(getattr(value, "to_metrics", None))


def _iter_slots(obj: object):
    """Attribute names declared via ``__slots__`` anywhere in the MRO."""
    seen: set[str] = set()
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if name.startswith("_") or name in seen:
                continue
            seen.add(name)
            yield name


def _numeric_properties(obj: object):
    """(name, value) for numeric ``property`` descriptors on the class."""
    for klass in type(obj).__mro__:
        for name, descr in vars(klass).items():
            if name.startswith("_") or not isinstance(descr, property):
                continue
            try:
                value = getattr(obj, name)
            except Exception:  # pragma: no cover - defensive
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                yield name, value


def _scrape(source: MetricSource) -> dict[str, Any]:
    """Turn one registered source into a (possibly nested) mapping."""
    if _is_summarizable(source):
        return dict(source.to_metrics())
    if callable(source) and not isinstance(source, type):
        source = source()
    if isinstance(source, Mapping):
        return dict(source)
    out: dict[str, Any] = {}
    if dataclasses.is_dataclass(source) and not isinstance(source, type):
        for f in dataclasses.fields(source):
            if not f.name.startswith("_"):
                out[f.name] = getattr(source, f.name)
    elif hasattr(type(source), "__slots__"):
        for name in _iter_slots(source):
            out[name] = getattr(source, name)
    else:
        for name, value in vars(source).items():
            if not name.startswith("_"):
                out[name] = value
    for name, value in _numeric_properties(source):
        out.setdefault(name, value)
    return out


def _flatten(prefix: str, value: Any, into: dict[str, Number]) -> None:
    if isinstance(value, bool):
        into[prefix] = int(value)
    elif isinstance(value, (int, float)):
        into[prefix] = value
    elif isinstance(value, Mapping):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}", sub, into)
    elif _is_summarizable(value):
        # Histograms nested in stats objects/mappings expand to their
        # stable summary suffixes (<prefix>.count/.p50/.p99/...).
        for key, sub in value.to_metrics().items():
            _flatten(f"{prefix}.{key}", sub, into)
    # non-numeric leaves (names, strings, objects) are not metrics: skip


#: topology level tokens appearing in metric paths, innermost first —
#: drives the report's paper-Fig.-2 ordering (core < cache < chip <
#: numa/node < machine/global)
_LEVEL_RANK = {
    "core": 0,
    "cache": 1,
    "chip": 2,
    "numa": 3,
    "node": 3,
    "machine": 4,
    "global": 4,
}
_LEVEL_TOKEN = re.compile(r"(core|cache|chip|numa|node|machine|global)#?(\d+)?")


def _topo_key(path: str):
    """Sort key rendering paths in topology order, lexicographic fallback.

    Every level token in the path contributes ``(rank, index)``, so
    ``q:core#2`` < ``q:chip#0`` < ``q:machine`` and ``core2`` < ``core10``;
    paths with no level tokens keep their plain lexicographic position.
    """
    tokens = tuple(
        (_LEVEL_RANK[m.group(1)], int(m.group(2) or 0))
        for m in _LEVEL_TOKEN.finditer(path)
    )
    return (tokens, path)


class MetricsRegistry:
    """A tree of named metric sources with flat dot-path export.

    Paths are stable identifiers: tooling (regression gates, dashboards,
    tests) keys on them, so renaming a path is an API change.
    """

    def __init__(self) -> None:
        self._sources: dict[str, MetricSource] = {}

    # -- registration ---------------------------------------------------
    def register(self, path: str, source: MetricSource, *, replace: bool = False) -> None:
        """Register ``source`` under ``path`` (raises on duplicates)."""
        if (
            not path
            or path != path.strip()
            or any(not seg or seg != seg.strip() for seg in path.split("."))
        ):
            raise ValueError(f"invalid metrics path {path!r}")
        if path in self._sources and not replace:
            raise ValueError(f"metrics path {path!r} already registered")
        self._sources[path] = source

    def unregister(self, path: str) -> None:
        self._sources.pop(path, None)

    def paths(self) -> list[str]:
        return sorted(self._sources)

    def __len__(self) -> int:
        return len(self._sources)

    def __contains__(self, path: str) -> bool:
        return path in self._sources

    # -- export ---------------------------------------------------------
    def columns(self) -> tuple[list[str], list[Number]]:
        """Every source flattened to ``(paths, values)``: the dot-paths
        in sorted order and the values aligned with them.

        Two lists hold a snapshot in less memory than a dict, so a shard
        ships its report this way (:func:`repro.obs.merge.union_snapshots`
        merges them).
        """
        flat: dict[str, Number] = {}
        for path, source in self._sources.items():
            for name, value in _scrape(source).items():
                _flatten(f"{path}.{name}", value, flat)
        # sorting the keys, not the items, builds no (key, value) tuples
        paths = sorted(flat)
        return paths, [flat[path] for path in paths]

    def snapshot(self) -> dict[str, Number]:
        """Flat ``{dot.path.counter: value}`` view of every source, sorted."""
        return dict(zip(*self.columns()))

    @staticmethod
    def diff(before: Mapping[str, Number], after: Mapping[str, Number]) -> dict[str, Number]:
        """Counters that moved between two snapshots (missing keys = 0).

        Returns ``{path: after - before}`` for every path whose value
        changed; unchanged counters are omitted, so an empty dict means
        "nothing happened between the snapshots".
        """
        out: dict[str, Number] = {}
        for key in sorted(set(before) | set(after)):
            delta = after.get(key, 0) - before.get(key, 0)
            if delta:
                out[key] = delta
        return out

    def report(self, snapshot: Optional[Mapping[str, Number]] = None) -> str:
        """Topology-grouped human-readable rendering of a snapshot.

        Group headers and the entries within each group render in
        *topology* order — per-core entries first, then cache / chip /
        NUMA, the machine/global level last — so the report reads like
        paper Fig. 2 instead of a lexicographic jumble (where ``chip``
        would sort before ``core``).  Paths themselves are unchanged.
        """
        snap = self.snapshot() if snapshot is None else snapshot
        groups: dict[str, list[tuple[str, Number]]] = {}
        for path, value in snap.items():
            top, _, rest = path.partition(".")
            groups.setdefault(top, []).append((rest, value))
        lines: list[str] = []
        for top in sorted(groups, key=_topo_key):
            lines.append(f"== {top} ==")
            width = max(len(name) for name, _ in groups[top])
            for name, value in sorted(groups[top], key=lambda nv: _topo_key(nv[0])):
                if isinstance(value, float):
                    lines.append(f"  {name:<{width}}  {value:.4f}")
                else:
                    lines.append(f"  {name:<{width}}  {value}")
        return "\n".join(lines) if lines else "(no metrics registered)"

    def __repr__(self) -> str:
        return f"<MetricsRegistry sources={len(self._sources)}>"
