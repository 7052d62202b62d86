"""Structured event tracing.

A :class:`Tracer` collects ``TraceRecord`` tuples from any subsystem that
was handed one.  Tracing is opt-in and cheap when disabled (`enabled`
flag checked before formatting anything).  Records carry a category so a
test or a debugging session can filter, e.g. ``trace.select("lock")`` or
``trace.select("nic", "pioman")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One trace line: when, which subsystem, where, what."""

    time: int
    category: str
    actor: str
    message: str
    data: Optional[dict] = None

    def __str__(self) -> str:
        return f"[{self.time:>12} ns] {self.category:<8} {self.actor:<14} {self.message}"


class Tracer:
    """Collects trace records; disabled by default."""

    def __init__(self, enabled: bool = False, limit: Optional[int] = None) -> None:
        self.enabled = enabled
        self.limit = limit
        self.records: list[TraceRecord] = []
        self.dropped = 0
        #: Causal context: the node id (see ``repro.obs.critpath``) of the
        #: activity currently executing on the host call stack — set by the
        #: task runner around ``task.run`` so host-instant work it triggers
        #: (a NIC post, a CQ handler) can attach a cause edge.  Only ever
        #: written under an ``enabled`` guard.
        self.cursor: Optional[str] = None

    def emit(
        self,
        time: int,
        category: str,
        actor: str,
        message: str,
        **data: Any,
    ) -> None:
        """Record one event if tracing is on (and under the record limit)."""
        if not self.enabled:
            return
        if self.limit is not None and len(self.records) >= self.limit:
            self.dropped += 1
            return
        self.records.append(TraceRecord(time, category, actor, message, data or None))

    def edge(
        self,
        time: int,
        actor: str,
        kind: str,
        cause: str,
        effect: str,
        start: int,
        **extra: Any,
    ) -> None:
        """Record one causal edge ``cause -> effect``.

        ``start`` is the cause's timestamp; ``time`` the effect's, so the
        edge spans the interval ``[start, time]``.  Edges share the record
        stream (category ``"edge"``, ``phase="edge"``) and export through
        the Chrome-trace path as instants, which keeps them merge- and
        analyze-compatible.  ``repro.obs.critpath`` walks them backward
        from the last completion to extract the critical path.
        """
        self.emit(
            time, "edge", actor, f"edge:{kind} {cause} -> {effect}",
            phase="edge", edge=kind, cause=cause, effect=effect,
            start=start, **extra,
        )

    def select(self, *categories: str) -> list[TraceRecord]:
        """All records whose category is one of ``categories``."""
        wanted = set(categories)
        return [r for r in self.records if r.category in wanted]

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0

    def dump(self, categories: Optional[Iterable[str]] = None) -> str:
        """Human-readable multi-line dump (optionally filtered)."""
        recs = self.records if categories is None else self.select(*categories)
        return "\n".join(str(r) for r in recs)

    def __len__(self) -> int:
        return len(self.records)


class _NullTracer(Tracer):
    """The always-off tracer behind :data:`NULL_TRACER`.

    The null tracer is shared process-wide as the default of every
    subsystem; flipping its ``enabled`` flag would silently turn on
    collection for *all* defaulted subsystems at once (and leak records
    across unrelated simulations).  ``enabled`` is therefore a read-only
    ``False`` — construct a real ``Tracer(enabled=True)`` and pass it
    explicitly instead — and ``emit`` is a hard no-op either way.

    ``enabled`` is a plain class attribute, not a property: every
    ``if tracer.enabled:`` on a default tracer reads it, and a property
    would make each of those reads a Python call.  ``__setattr__``
    refuses the assignment instead.
    """

    enabled = False

    def __init__(self) -> None:
        # Tracer.__init__ assigns ``self.enabled``, which __setattr__
        # below rejects; set the remaining state directly.
        self.limit = None
        self.records = []
        self.dropped = 0
        self.cursor = None

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "enabled":
            raise AttributeError(
                "NULL_TRACER is the shared process-wide default and cannot be "
                "enabled; construct a Tracer(enabled=True) and pass it explicitly"
            )
        super().__setattr__(name, value)

    def emit(self, *args: Any, **data: Any) -> None:
        return None


#: A process-wide always-disabled tracer, handed out as a default so
#: subsystems never need to branch on "do I have a tracer".
NULL_TRACER = _NullTracer()
