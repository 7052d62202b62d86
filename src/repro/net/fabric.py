"""The cluster fabric: point-to-point delivery between NICs.

One :class:`Fabric` per simulated cluster.  NICs register by (node id,
driver name, index); frames route to the *same driver rail* on the target
node — multirail setups (one MX + one IB NIC per node, as on BORDERLINE)
are therefore just multiple registrations.

Wire jitter is drawn per *source rail*: every rail gets its own
stream, derived from the fabric seed and the rail's identity, so a
frame's wire time depends only on the sending NIC and its own transmit
count — never on the global interleaving of transmissions.  That is
what keeps a sharded run (:mod:`repro.cluster.shard`, where each shard
only sees its own nodes' transmissions) bit-identical to the
single-process run.

``remote_sink`` — when set, a frame whose destination rail is not
registered here is handed to it as ``(src_nic, frame, arrive_at)``
instead of raising; the shard runner uses this to capture cross-shard
frames into its outbox.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.driver import DriverSpec
from repro.net.frame import Frame
from repro.net.nic import Nic
from repro.par.jobs import derive_seed
from repro.sim.rng import Rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine


class Fabric:
    """Connects the NICs of a cluster and schedules wire deliveries."""

    def __init__(self, engine: "Engine", rng: Optional[Rng] = None) -> None:
        self.engine = engine
        #: seed source only: its seed salts every per-rail jitter stream
        self.rng = rng if rng is not None else Rng(7)
        #: (node_id, driver_name, index) -> Nic
        self._nics: dict[tuple[int, str, int], Nic] = {}
        #: lazily created per-source-rail jitter streams
        self._link_rngs: dict[tuple[int, str, int], Rng] = {}
        #: cross-shard escape hatch: called as (src_nic, frame, arrive_at)
        #: for frames whose destination rail is not registered here
        self.remote_sink: Optional[Callable[[Nic, Frame, int], None]] = None

    def new_nic(self, node_id: int, driver: DriverSpec, index: int = 0) -> Nic:
        key = (node_id, driver.name, index)
        if key in self._nics:
            raise ValueError(f"duplicate NIC {key}")
        nic = Nic(self, node_id, driver, index)
        self._nics[key] = nic
        return nic

    def nic_of(self, node_id: int, driver_name: str, index: int = 0) -> Nic:
        return self._nics[(node_id, driver_name, index)]

    def peer_nic(self, nic: Nic, dst_node: int) -> Nic:
        """The same rail on the destination node."""
        return self._nics[(dst_node, nic.driver.name, nic.index)]

    def _link_rng(self, src_nic: Nic) -> Rng:
        key = (src_nic.node_id, src_nic.driver.name, src_nic.index)
        rng = self._link_rngs.get(key)
        if rng is None:
            # Seeded from the fabric seed and the rail's identity only:
            # every process that builds this fabric (any shard, any shard
            # count) derives the identical stream for this rail.
            salt = derive_seed(self.rng.seed, f"wire:{key[0]}:{key[1]}:{key[2]}")
            rng = self._link_rngs[key] = Rng(salt)
        return rng

    def wire_ns(self, src_nic: Nic, frame: Frame) -> int:
        """Latency + serialization for a frame leaving ``src_nic``."""
        base = src_nic.driver.wire_ns(frame.size_bytes)
        return self._link_rng(src_nic).jitter_ns(base, src_nic.driver.jitter)

    def min_lookahead_ns(self) -> Optional[int]:
        """Conservative lower bound on any frame's wire time (ns).

        ``DriverSpec.wire_ns`` is monotone in frame size, so the minimum
        over registered rails of a zero-payload frame's wire time scaled
        by the worst-case downward jitter bounds every possible delivery
        delay from below.  This is the lookahead window *L* of the
        conservative time-synchronization protocol: a frame sent at time
        *t* can never arrive before ``t + L``.  None when no NIC is
        registered (a shard that owns no nodes constrains nothing).
        """
        best: Optional[int] = None
        for nic in self._nics.values():
            floor = int(nic.driver.wire_ns(0) * (1.0 - nic.driver.jitter))
            if best is None or floor < best:
                best = floor
        return best

    def deliver(self, src_nic: Nic, frame: Frame, arrive_at: int) -> None:
        """Schedule arrival of ``frame`` at the matching rail of its
        destination node (or hand it to ``remote_sink`` when that rail
        lives in another shard's fabric)."""
        dst = self._nics.get((frame.dst_node, src_nic.driver.name, src_nic.index))
        if dst is None:
            if self.remote_sink is not None:
                self.remote_sink(src_nic, frame, arrive_at)
                return
            raise KeyError(
                f"no NIC ({frame.dst_node}, {src_nic.driver.name!r}, "
                f"{src_nic.index}) registered and no remote_sink installed"
            )
        if dst is src_nic:
            raise ValueError("frame addressed to its own NIC")
        self.engine.post_at(arrive_at, dst._deliver, frame)

    def nics(self) -> list[Nic]:
        return list(self._nics.values())
