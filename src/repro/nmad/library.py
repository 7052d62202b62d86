"""The NewMadeleine communication engine over PIOMan.

Wiring (paper §IV-B):

* **Polling offload** — each NIC with pending operations has one *repeat*
  polling ltask; its CPU set is the set of cores sharing a cache with the
  core that started the communication, preserving polling affinity.  The
  task's function drains the NIC completion queue and runs the protocol
  machine; it reports "complete" when no operation is pending, removing
  itself.
* **Submission offload** — ``isend`` does not touch the NIC: it creates a
  packet wrapper (whose embedded ltask is reused, no allocation) and
  submits a task for the *nearest idle core* — or to the global queue if
  every core is busy.  Whoever executes it runs the collect+optimize
  layers and posts frames.
* **Protocols** — eager below ``rdv_threshold``; a three-way rendezvous
  (RTS -> CTS -> DATA -> FIN) above it.  The handshake steps all happen in
  polling tasks, which is why they progress while application threads
  compute (Figs. 5-7) — no RDMA read needed.
* **Strategies** — the optimization layer packs aggregates and splits
  large bodies across rails (:mod:`repro.nmad.strategies`).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.task import LTask, TaskOption
from repro.net.frame import Completion, Frame
from repro.net.nic import Nic
from repro.nmad.gate import Gate
from repro.nmad.requests import (
    ANY,
    PacketWrapper,
    PwKind,
    RecvRequest,
    ReqState,
    SendRequest,
)
from repro.nmad.filters import DataFilter
from repro.nmad.strategies import Strategy, StratAggregSplit
from repro.threads.flag import Flag
from repro.threads.instructions import Compute, Instr, SetFlag
from repro.topology.cpuset import CpuSet
from repro.topology.machine import Level

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Node


class NMadStats:
    __slots__ = (
        "sends",
        "recvs",
        "eager_sends",
        "rdv_sends",
        "frames_posted",
        "poll_task_submits",
        "submit_offloads_idle",
        "submit_offloads_global",
        "unexpected_hits",
    )

    def __init__(self) -> None:
        self.sends = 0
        self.recvs = 0
        self.eager_sends = 0
        self.rdv_sends = 0
        self.frames_posted = 0
        self.poll_task_submits = 0
        self.submit_offloads_idle = 0
        self.submit_offloads_global = 0
        self.unexpected_hits = 0


class NMad:
    """One NewMadeleine instance per node."""

    def __init__(
        self,
        node: "Node",
        *,
        rdv_threshold: int = 16 * 1024,
        strategy: Optional[Strategy] = None,
        poll_affinity_level: Level = Level.CHIP,
        offload_submission: bool = True,
        data_filter: "Optional[DataFilter]" = None,
        registry=None,
    ) -> None:
        self.node = node
        self.machine = node.machine
        self.engine = node.engine
        self.pioman = node.pioman
        self.scheduler = node.scheduler
        self.rdv_threshold = rdv_threshold
        self.strategy = strategy if strategy is not None else StratAggregSplit()
        self.poll_affinity_level = poll_affinity_level
        self.offload_submission = offload_submission
        #: optional slow-network data filter (paper §IV-B closing idea)
        self.data_filter = data_filter
        self.tracer = node.pioman.tracer
        node.comm = self

        self.gates: dict[int, Gate] = {}
        self.expected: list[RecvRequest] = []
        #: metas of frames nobody was expecting yet (eager bodies / RTS)
        self.unexpected: list[dict] = []
        #: local rendezvous ids are unique per *this* node, so sends key
        #: by bare msg_id; inbound state keys by (src node, msg_id)
        self.rdv_out: dict[int, SendRequest] = {}
        self.rdv_in: dict[tuple[int, int], RecvRequest] = {}
        #: per-node id/seq streams, never process-global: a process-wide
        #: counter would make a node's message ids depend on how many
        #: *other* nodes share its process, which breaks the sharded-vs-
        #: single-process fingerprint identity (each shard hosts a subset
        #: of the nodes)
        self._msg_ids = itertools.count(1)
        self._req_seq = itertools.count()
        self.pending_ops = 0
        self.stats = NMadStats()
        #: metrics registry (defaults to the node's PIOMan registry, so one
        #: cluster-wide registry sees the whole stack without re-plumbing)
        self.registry = registry if registry is not None else node.pioman.registry
        if self.registry is not None:
            self.registry.register(f"nmad.node{node.id}", self.stats)
        #: live polling ltask per NIC name (None when self-completed)
        self._poll_tasks: dict[str, Optional[LTask]] = {n.name: None for n in node.nics}
        #: affinity set for polling tasks (fixed at first use)
        self._poll_cpuset: Optional[CpuSet] = None
        for nic in node.nics:
            nic.on_cq_write = self._on_cq_write

    # ------------------------------------------------------------------
    # public API (thread-context generators)
    # ------------------------------------------------------------------
    def isend(
        self, core: int, peer: int, tag: int, size: int, payload: Any = None
    ) -> Generator[Instr, Any, SendRequest]:
        """Post a non-blocking send from ``core``; returns the request."""
        req = SendRequest(peer, tag, size, payload, seq=next(self._req_seq))
        req.flag = Flag(self.machine, self.engine, home=core, name=f"snd{req.seq}")
        req.t_post = self.engine.now
        self.stats.sends += 1
        self.pending_ops += 1
        gate = self._gate(peer)
        if size <= self.rdv_threshold:
            req.protocol = "eager"
            self.stats.eager_sends += 1
            pw = PacketWrapper(
                PwKind.EAGER,
                peer,
                size,
                meta={
                    "tag": tag,
                    "seq": gate.next_send_seq(tag),
                    "size": size,
                    "payload": payload,
                    "src": self.node.id,
                },
                request=req,
            )
        else:
            req.protocol = "rdv"
            self.stats.rdv_sends += 1
            msg_id = next(self._msg_ids)
            self.rdv_out[msg_id] = req
            req.state = ReqState.RTS_SENT
            pw = PacketWrapper(
                PwKind.RTS,
                peer,
                64,
                meta={
                    "tag": tag,
                    "seq": gate.next_send_seq(tag),
                    "size": size,
                    "src": self.node.id,
                    "msg_id": msg_id,
                },
                request=req,
            )
        if self.tracer.enabled:
            self.tracer.emit(
                self.engine.now, "nmad", f"node{self.node.id}",
                f"isend #{req.seq} -> {peer} tag={tag} {size}B ({req.protocol})",
            )
        yield from self._submit_pw(core, gate, pw)
        yield from self._ensure_polling(core)
        return req

    def irecv(
        self, core: int, peer: int = ANY, tag: int = ANY
    ) -> Generator[Instr, Any, RecvRequest]:
        """Post a non-blocking receive; wildcards allowed."""
        req = RecvRequest(peer, tag, seq=next(self._req_seq))
        req.flag = Flag(self.machine, self.engine, home=core, name=f"rcv{req.seq}")
        req.t_post = self.engine.now
        self.stats.recvs += 1
        self.pending_ops += 1
        # Check the unexpected queue first (lowest sequence wins so the
        # MPI non-overtaking rule holds per (source, tag) flow).
        match = self._match_unexpected(req)
        if match is not None:
            self.stats.unexpected_hits += 1
            if match["kind"] == "eager":
                self._complete_recv(core, req, match, via_thread=True)
                yield SetFlag(req.flag)
                self.pending_ops -= 1
            else:  # RTS: reply CTS, stay pending until DATA lands
                self.rdv_in[(match["src"], match["msg_id"])] = req
                req.state = ReqState.CTS_SENT
                req.src = match["src"]
                req.recv_tag = match["tag"]
                req.size = match["size"]
                gate = self._gate(match["src"])
                cts = PacketWrapper(
                    PwKind.CTS, match["src"], 32, meta={"msg_id": match["msg_id"]}
                )
                yield from self._submit_pw(core, gate, cts)
        else:
            self.expected.append(req)
        yield from self._ensure_polling(core)
        return req

    def wait(
        self, core: int, req, mode: str = "block"
    ) -> Generator[Instr, Any, None]:
        """Wait for a request.

        ``block`` (default) deschedules the thread on the request's flag —
        Mad-MPI's blocking condition (paper §V-B); progression happens on
        idle cores.  ``active`` drives PIOMan from this thread meanwhile,
        and ``spin`` busy-waits on the flag.
        """
        from repro.core.progress import piom_wait
        from repro.threads.instructions import BlockOn, SpinOn

        if req.done or req.flag.is_set:
            return
        if mode == "block":
            yield BlockOn(req.flag)
        elif mode == "spin":
            yield SpinOn(req.flag)
        elif mode == "active":
            # Reuse piom_wait by treating the request like a task handle.
            class _Shim:
                completion = req.flag
                name = "req"

            yield from piom_wait(self.pioman, core, _Shim, mode="active")
        else:
            raise ValueError(f"unknown wait mode {mode!r}")

    def test(self, core: int, req) -> Generator[Instr, Any, bool]:
        """Non-blocking completion check (MPI_Test shape)."""
        yield Compute(self.machine.spec.spin_check_ns)
        return req.done or req.flag.is_set

    def waitall(self, core: int, reqs, mode: str = "block") -> Generator[Instr, Any, None]:
        """Wait for every request (order irrelevant)."""
        for req in reqs:
            yield from self.wait(core, req, mode=mode)

    def waitany(self, core: int, reqs) -> Generator[Instr, Any, int]:
        """Block until any request completes; returns its index.

        Spurious wake-ups are absorbed by re-checking (Mesa style).
        """
        from repro.threads.instructions import BlockOnAny

        if not reqs:
            raise ValueError("waitany needs at least one request")
        while True:
            for i, req in enumerate(reqs):
                if req.done or req.flag.is_set:
                    return i
            yield BlockOnAny([req.flag for req in reqs])

    def send(self, core, peer, tag, size, payload=None, mode="block"):
        """Blocking send (generator)."""
        req = yield from self.isend(core, peer, tag, size, payload)
        yield from self.wait(core, req, mode=mode)
        return req

    def recv(self, core, peer=ANY, tag=ANY, mode="block"):
        """Blocking receive (generator); returns the completed request."""
        req = yield from self.irecv(core, peer, tag)
        yield from self.wait(core, req, mode=mode)
        return req

    # ------------------------------------------------------------------
    # submission offload (§IV-B)
    # ------------------------------------------------------------------
    def _submit_pw(
        self, core: int, gate: Gate, pw: PacketWrapper
    ) -> Generator[Instr, Any, None]:
        gate.collect(pw)
        if not self.offload_submission:
            yield Compute(self.machine.spec.submit_route_ns)
            self._pump(core, gate)
            return
        target = self.pioman.find_idle_core(core, self.machine.all_cores())
        if target is not None:
            cpuset = CpuSet.single(target)
            self.stats.submit_offloads_idle += 1
        else:
            cpuset = self.machine.all_cores()
            self.stats.submit_offloads_global += 1
        task = pw.arm(self._pw_submit_fn, cpuset, cost_ns=self._rail_post_cost(gate))
        task.arg = (gate, pw)
        yield from self.pioman.submit(core, task)

    def _rail_post_cost(self, gate: Gate) -> int:
        return max(nic.driver.post_cost_ns for nic in gate.rails)

    def _pw_submit_fn(self, task: LTask) -> bool:
        gate, pw = task.arg
        core = task.current_core if task.current_core is not None else 0
        self._pump(core, gate)
        return True

    def _pump(self, core: int, gate: Gate) -> None:
        """Run the optimization layer: pack outbox wrappers onto idle
        rails and post the resulting frames (host-instant)."""
        for rail_idx, kind, size, pws in self.strategy.pack(gate):
            nic = gate.rails[rail_idx]
            if self._maybe_filter(core, gate, rail_idx, kind, size, pws):
                continue  # deferred: an idle core is encoding the body
            meta = self._frame_meta(kind, size, pws)
            frame = Frame(kind, self.node.id, gate.peer_node, size, meta=meta)
            nic.post_send(frame)
            if self.tracer.enabled:
                self.tracer.emit(
                    self.engine.now, "wire", nic.name,
                    f"tx {kind} {size}B -> node{gate.peer_node}",
                )
            gate.stats.frames_out += 1
            self.stats.frames_posted += 1
            for pw in pws:
                pw.rail = rail_idx
                self._on_pw_posted(core, pw, kind)

    def _maybe_filter(
        self, core: int, gate: Gate, rail_idx: int, kind: str, size: int,
        pws: list[PacketWrapper],
    ) -> bool:
        """§IV-B data filters: encode large bodies for slow rails on an
        idle core.  Returns True when the descriptor was deferred."""
        f = self.data_filter
        if f is None or kind not in ("data", "eager") or len(pws) != 1:
            return False
        pw = pws[0]
        if pw.meta.get("filtered") or size != pw.size:  # never re/split-filter
            return False
        nic = gate.rails[rail_idx]
        if not f.applies(size, nic.driver.bytes_per_us):
            return False

        def encode(task: LTask) -> bool:
            pw.meta["filtered"] = f.name
            pw.meta["orig_bytes"] = pw.size
            pw.size = f.encoded_size(pw.size)
            gate.collect(pw)
            runner = task.current_core if task.current_core is not None else core
            self._pump(runner, gate)
            return True

        task = LTask(
            encode,
            cpuset=self.machine.all_cores(),
            cost_ns=f.encode_cost_ns(size),
            name=f"filter:{f.name}:{pw.kind.value}",
        )
        target = self.pioman.find_idle_core(core, self.machine.all_cores())
        if target is not None:
            task.cpuset = CpuSet.single(target)
        self.pioman.submit_nowait(core, task)
        if self.tracer.enabled:
            self.tracer.emit(
                self.engine.now, "nmad", f"node{self.node.id}",
                f"filter {f.name}: {size}B -> {f.encoded_size(size)}B deferred",
            )
        return True

    def _frame_meta(self, kind: str, size: int, pws: list[PacketWrapper]) -> dict:
        if kind == "pack":
            return {"subs": [dict(pw.meta, kind=pw.kind.value) for pw in pws]}
        if kind == "data" and len(pws) == 1 and pws[0].kind is PwKind.DATA:
            # may be one chunk of a split body
            meta = dict(pws[0].meta)
            meta["chunk_bytes"] = size
            return meta
        return dict(pws[0].meta, kind=kind)

    def _on_pw_posted(self, core: int, pw: PacketWrapper, kind: str) -> None:
        req = pw.request
        if pw.kind is PwKind.EAGER and isinstance(req, SendRequest):
            # Eager sends complete locally once buffered on the wire.
            self._complete_send(core, req)

    # ------------------------------------------------------------------
    # polling offload
    # ------------------------------------------------------------------
    def _ensure_polling(self, core: int) -> Generator[Instr, Any, None]:
        """Make sure each NIC has a live polling task (thread context)."""
        if self._poll_cpuset is None:
            self._poll_cpuset = self.machine.siblings_sharing(
                core, self.poll_affinity_level
            )
        for nic in self.node.nics:
            if self._poll_tasks[nic.name] is not None:
                continue
            if self.pending_ops == 0:
                continue
            task = LTask(
                self._poll_fn,
                arg=nic,
                cpuset=self._poll_cpuset,
                options=TaskOption.REPEAT,
                cost_ns=nic.driver.poll_cost_ns,
                name=f"poll:{nic.name}",
            )
            self._poll_tasks[nic.name] = task
            self.stats.poll_task_submits += 1
            yield from self.pioman.submit(core, task)

    def _poll_fn(self, task: LTask) -> bool:
        """The repeat polling task body (host-instant).

        Returns True ("poll succeeded, task complete") when nothing is
        pending any more; the next operation will submit a fresh task.
        """
        nic: Nic = task.arg
        core = task.current_core if task.current_core is not None else 0
        for comp in nic.poll():
            self._handle_completion(core, comp)
        self._pump_all(core)
        if self.pending_ops == 0:
            self._poll_tasks[nic.name] = None
            return True
        return False

    def _pump_all(self, core: int) -> None:
        for gate in self.gates.values():
            if gate.outbox:
                self._pump(core, gate)

    def _on_cq_write(self, nic: Nic, comp: Completion) -> None:
        """NIC wrote its CQ: wake the cores that can run the poll task."""
        if self._poll_cpuset is None:
            return
        origin = self._poll_cpuset.first()
        cause = None
        if (
            self.tracer.enabled
            and comp.frame is not None
            and comp.frame.trace_rx is not None
        ):
            cause = (comp.frame.trace_rx, comp.frame.trace_rx_time)
        self.scheduler.ring_cpuset(
            self._poll_cpuset, origin, extra_ns=nic.driver.poll_cost_ns, cause=cause
        )

    # ------------------------------------------------------------------
    # protocol machine (host-instant, runs inside polling tasks)
    # ------------------------------------------------------------------
    def _handle_completion(self, core: int, comp: Completion) -> None:
        if comp.kind == "send_done":
            return
        if comp.kind in ("rdma_done", "rdma_served"):
            return  # nmad's rendezvous never uses RDMA reads
        frame = comp.frame
        assert frame is not None
        tracer = self.tracer
        if tracer.enabled and tracer.cursor is not None and frame.trace_rx is not None:
            # The delivered frame is what this poll run is reacting to:
            # edge from the wire arrival into the current run node.
            tracer.edge(
                self.engine.now, f"node{self.node.id}", "wakeup",
                frame.trace_rx, tracer.cursor, frame.trace_rx_time,
            )
        if frame.kind == "pack":
            for sub in frame.meta["subs"]:
                self._dispatch_msg(core, sub)
        else:
            self._dispatch_msg(core, dict(frame.meta, kind=frame.kind))

    def _dispatch_msg(self, core: int, meta: dict) -> None:
        kind = meta["kind"]
        if meta.get("filtered") and self.data_filter is not None:
            f = self.data_filter
            clean = dict(meta)
            clean.pop("filtered", None)
            orig = clean.pop("orig_bytes", clean.get("size", 0))
            if "chunk_bytes" in clean:
                # the wire chunk was the encoded body; after decoding the
                # receiver has the full original bytes
                clean["chunk_bytes"] = orig
            decode_cost = f.decode_cost_ns(f.encoded_size(orig))

            def decode(task: LTask) -> bool:
                runner = task.current_core if task.current_core is not None else core
                self._dispatch_msg(runner, clean)
                return True

            task = LTask(
                decode,
                cpuset=self._poll_cpuset or self.machine.all_cores(),
                cost_ns=decode_cost,
                name=f"unfilter:{f.name}",
            )
            self.pioman.submit_nowait(core, task)
            return
        if self.tracer.enabled:
            self.tracer.emit(
                self.engine.now, "nmad", f"node{self.node.id}",
                f"rx {kind} from node{meta.get('src', '?')}",
            )
        if kind == "eager":
            self._arrive_eager(core, meta)
        elif kind == "rts":
            self._arrive_rts(core, meta)
        elif kind == "cts":
            self._arrive_cts(core, meta)
        elif kind == "data":
            self._arrive_data(core, meta)
        elif kind == "fin":
            self._arrive_fin(core, meta)
        else:  # pragma: no cover - protocol guard
            raise ValueError(f"unknown message kind {kind!r}")

    def _arrive_eager(self, core: int, meta: dict) -> None:
        req = self._match_expected(meta["src"], meta["tag"])
        if req is None:
            self.unexpected.append(meta)
            return
        self._complete_recv(core, req, meta, via_thread=False)
        self.pending_ops -= 1

    def _arrive_rts(self, core: int, meta: dict) -> None:
        req = self._match_expected(meta["src"], meta["tag"])
        if req is None:
            self.unexpected.append(meta)
            return
        self.rdv_in[(meta["src"], meta["msg_id"])] = req
        req.state = ReqState.CTS_SENT
        req.src = meta["src"]
        req.recv_tag = meta["tag"]
        req.size = meta["size"]
        gate = self._gate(meta["src"])
        cts = PacketWrapper(PwKind.CTS, meta["src"], 32, meta={"msg_id": meta["msg_id"]})
        gate.collect(cts)
        self._pump(core, gate)

    def _arrive_cts(self, core: int, meta: dict) -> None:
        req = self.rdv_out.get(meta["msg_id"])
        if req is None or req.state is not ReqState.RTS_SENT:
            return  # duplicate CTS
        req.state = ReqState.DATA_INFLIGHT
        gate = self._gate(req.peer)
        data = PacketWrapper(
            PwKind.DATA,
            req.peer,
            req.size,
            meta={
                "msg_id": meta["msg_id"],
                "src": self.node.id,
                "payload": req.payload,
                "total": req.size,
            },
            request=req,
        )
        gate.collect(data)
        self._pump(core, gate)

    def _arrive_data(self, core: int, meta: dict) -> None:
        rdv_key = (meta["src"], meta["msg_id"])
        req = self.rdv_in.get(rdv_key)
        if req is None:  # pragma: no cover - protocol guard
            raise ValueError(f"DATA for unknown rendezvous {rdv_key}")
        chunk = meta.get("chunk_bytes", meta["total"])
        req.bytes_seen += chunk
        req.chunks_seen += 1
        if "payload" in meta and meta["payload"] is not None:
            req.payload = meta["payload"]
        if req.bytes_seen < meta["total"]:
            return  # more chunks on other rails
        req.size = meta["total"]
        del self.rdv_in[rdv_key]
        gate = self._gate(req.src)
        fin = PacketWrapper(PwKind.FIN, req.src, 16, meta={"msg_id": meta["msg_id"]})
        gate.collect(fin)
        self._pump(core, gate)
        req.state = ReqState.COMPLETE
        req.t_complete = self.engine.now
        req.flag.set(core)
        self.pending_ops -= 1

    def _arrive_fin(self, core: int, meta: dict) -> None:
        req = self.rdv_out.pop(meta["msg_id"], None)
        if req is None:  # pragma: no cover - protocol guard
            raise ValueError(f"FIN for unknown rendezvous {meta['msg_id']}")
        self._complete_send(core, req)

    # ------------------------------------------------------------------
    # matching & completion helpers
    # ------------------------------------------------------------------
    def _gate(self, peer: int) -> Gate:
        gate = self.gates.get(peer)
        if gate is None:
            gate = Gate(self.node.id, peer, list(self.node.nics))
            self.gates[peer] = gate
            if self.registry is not None:
                self.registry.register(
                    f"nmad.node{self.node.id}.gate{peer}", gate.stats
                )
        return gate

    def _match_expected(self, src: int, tag: int) -> Optional[RecvRequest]:
        for req in self.expected:
            if req.matches(src, tag):
                self.expected.remove(req)
                return req
        return None

    def _match_unexpected(self, req: RecvRequest) -> Optional[dict]:
        best = None
        for meta in self.unexpected:
            if req.matches(meta["src"], meta["tag"]):
                if best is None or meta["seq"] < best["seq"]:
                    best = meta
        if best is not None:
            self.unexpected.remove(best)
        return best

    def _complete_recv(
        self, core: int, req: RecvRequest, meta: dict, via_thread: bool
    ) -> None:
        req.src = meta["src"]
        req.recv_tag = meta["tag"]
        req.size = meta["size"]
        req.payload = meta.get("payload")
        req.state = ReqState.COMPLETE
        req.t_complete = self.engine.now
        if not via_thread:
            req.flag.set(core)
            # via_thread callers yield SetFlag themselves and adjust
            # pending_ops at the call site.

    def _complete_send(self, core: int, req: SendRequest) -> None:
        if req.state is ReqState.COMPLETE:
            return
        req.state = ReqState.COMPLETE
        req.t_complete = self.engine.now
        req.flag.set(core)
        self.pending_ops -= 1

    def __repr__(self) -> str:
        return f"<NMad node{self.node.id} pending={self.pending_ops}>"
