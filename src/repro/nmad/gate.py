"""Gates: per-peer connections and the collect layer.

A :class:`Gate` is NewMadeleine's connection object to one peer.  Its
outbox is the *collect layer* of paper Fig. 1: packet wrappers from all
application flows to that peer pool here, giving the optimization layer a
global view (aggregation, reordering, multirail distribution) before
anything touches a NIC.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.nmad.requests import PacketWrapper

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.nic import Nic


class GateStats:
    __slots__ = (
        "pw_collected",
        "frames_out",
        "aggregated_pw",
        "split_chunks",
        "reordered",
        "max_outbox",
    )

    def __init__(self) -> None:
        self.pw_collected = 0
        self.frames_out = 0
        self.aggregated_pw = 0
        self.split_chunks = 0
        self.reordered = 0
        self.max_outbox = 0


class Gate:
    """Connection to one peer node over one or more rails."""

    def __init__(self, local_node: int, peer_node: int, rails: list["Nic"]) -> None:
        self.local_node = local_node
        self.peer_node = peer_node
        self.rails = rails
        #: the collect layer: wrappers awaiting NIC submission
        self.outbox: deque[PacketWrapper] = deque()
        #: per-direction sequence counters (per tag for ordered matching)
        self._send_seq: dict[int, int] = {}
        self._recv_seq: dict[int, int] = {}
        self.stats = GateStats()

    def collect(self, pw: PacketWrapper) -> None:
        """Add a wrapper to the outbox (collect layer)."""
        self.outbox.append(pw)
        self.stats.pw_collected += 1
        if len(self.outbox) > self.stats.max_outbox:
            self.stats.max_outbox = len(self.outbox)

    def next_send_seq(self, tag: int) -> int:
        s = self._send_seq.get(tag, 0)
        self._send_seq[tag] = s + 1
        return s

    def __repr__(self) -> str:
        return f"<Gate {self.local_node}->{self.peer_node} outbox={len(self.outbox)} rails={len(self.rails)}>"
