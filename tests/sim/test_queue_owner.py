"""One owner for the event queue.

The engine's queue layout (entry tuples, the ``seq``/``live`` counters,
the same-instant FIFO, the heap behind it and the run loop's threshold
mirror that ``claim`` reads) is a decision of ``sim/engine.py`` alone.  Every other module posts through the public
API (``post``/``post_at``/``post_soon``/``schedule``) and relies only on
the ``(time, seq)`` firing order that the engine fuzz checks against the
test-only reference engine.  The one
exception is ``core/leap.py``, which replays the slow path's seq
allocation and re-arms its carriers at explicit seqs.

This scan fails when any other module reads or writes engine-private
state on an object other than its own ``self``.
"""

import ast
import os

import repro

SRC = os.path.dirname(repro.__file__)
#: engine-private queue state
PRIVATE = {"_seq", "_live", "_nowq", "_q", "_enqueue", "_lim"}
#: the queue's owner, and the leap (until it is deleted)
ALLOWED = {os.path.join("sim", "engine.py"), os.path.join("core", "leap.py")}


def _foreign_private_access(path: str) -> list:
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    hits = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in PRIVATE
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            hits.append(f"{ast.unparse(node)} (line {node.lineno})")
    return hits


def test_only_the_engine_and_the_leap_touch_engine_private_state():
    offenders = {}
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, SRC)
            if rel in ALLOWED:
                continue
            hits = _foreign_private_access(path)
            if hits:
                offenders[rel] = hits
    assert not offenders, f"engine-private state touched outside the engine: {offenders}"


def test_the_scan_sees_the_leap():
    """The scan is live: the leap, the one allowed exception, is caught."""
    assert _foreign_private_access(os.path.join(SRC, "core", "leap.py"))
