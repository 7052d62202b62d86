"""Quiescence leaping: O(1) fast-forward over settled idle-poll cycles.

A ``true_spin`` machine whose cores are all primed-settled-empty (the
occupancy-summary fast path, PR 5) spends its steady state firing the
same four events per core per probe cycle — sleep-wake, dispatch kick,
generator resume, batched-Compute completion — none of which can change
any simulation state until something *external* arrives: a task submit,
a NIC delivery, a far timer, a fault-stream tick.  The leap recognizes
that window, computes ``k``, the number of whole poll cycles that fit
before the next non-elidable event, and replays all ``k`` cycles of
per-core accounting in O(cores) host work instead of O(k × cores)
event fires.

Cores join the leap in either of two provable states:

* **asleep** — idle thread BLOCKED on its recognized sleep carrier
  (the steady state between cycles);
* **mid-cycle** — idle thread RUNNING with its batched-Compute
  completion carrier in flight, its generator suspended at the fast
  path's Compute yield (the scheduler's ``_in_fast`` marker proves the
  suspension point; a slow-pass Compute of coincidentally equal cost is
  indistinguishable from the outside, which is why the marker exists).
  Poll phases drift apart across cores, so at almost any instant *some*
  core is mid-cycle — without this case the leap would only ever fire
  in the vanishingly rare all-asleep instants.  The half-open cycle is
  finished by resuming the generator once with the clock staged to its
  completion instant (the generator itself replays the pass's histogram
  samples), after which the core is in the asleep state and its
  remaining cycles batch like everyone else's.

The contract is the same one the summary fast path shipped under:
**bit-identical**.  Leap-on and leap-off runs produce the same
fingerprints, the same metrics snapshots, the same engine ``fired``
count and internal ``seq`` numbering — the leap replays the exact
per-cycle accounting (pass/summary/queue counters, histogram samples via
:meth:`Histogram.record_many`, virtual Compute cost, run-queue arrival
seqs, the engine's global event-seq allocation order) and re-arms each
core's sleep carrier with the very ``(time, seq)`` the slow path would
have assigned.  Anything it cannot prove inert bounds the leap instead
(conservative, never wrong): tracer-enabled runs, idle backoff,
non-primed cores and pending run-queue entries fall back to the slow
path.  Every fault type is event-carried (see
:class:`~repro.faults.plan.FaultPlan`), so queued events already bound a
leap.

When it is tried: the engine's run loop consults the leap at the first
clock advance strictly past ``next_try``, the external event that
bounded (or blocked) the previous attempt, so each quiet gap between
external events gets an attempt as soon as it opens.  An attempt that
computes no bound retries past the end of the 4096 ns window that holds
the next event.  A span under two poll cycles is refused before the
micro-merge, which is the expensive part of an attempt.

Enablement: on by default when a :class:`~repro.core.manager.PIOMan`
with the summary fast path attaches to a ``true_spin`` scheduler;
``PIOMan(..., quiescence_leap=False)`` opts an instance out (the
leap-off oracle of the identity tests).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Optional

from repro.sim.engine import Event
from repro.threads.instructions import Compute, Sleep
from repro.threads.scheduler import Keypoint
from repro.threads.thread import TState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.manager import PIOMan
    from repro.sim.engine import Engine
    from repro.threads.scheduler import Scheduler

#: a declined attempt is retried at the first clock advance past the
#: 4096 ns window (``t | _RETRY_WINDOW``) that holds the next event
_RETRY_WINDOW = 4095

#: micro-merge event kinds, in per-cycle firing order (values are only
#: compared for heap tie-breaks that cannot happen — seq is unique)
_WAKE, _DISPATCH, _ADV1, _ADV2 = 0, 1, 2, 3

#: plan-entry shapes (how a core joins the leap)
_ASLEEP, _MIDCYCLE = 0, 1


class QuiescenceLeap:
    """One leap controller per engine, installed by :class:`PIOMan`.

    The engine's run loop calls :meth:`attempt` at the first clock
    advance strictly past ``next_try``: the external event that bounded
    (or blocked) the previous attempt has fired, so the world may have
    gone quiet again.  ``attempt`` re-validates everything from scratch
    — the consult instant is a cheap schedule, never a proof.
    """

    __slots__ = (
        "engine",
        "sched",
        "manager",
        "next_try",
        "leaps",
        "cycles_elided",
    )

    def __init__(self, engine: "Engine", sched: "Scheduler", manager: "PIOMan") -> None:
        self.engine = engine
        self.sched = sched
        self.manager = manager
        #: virtual time past which the next attempt is worth making; set
        #: by every attempt (the first advance of a run consults)
        self.next_try = -1
        # Host-side diagnostics only — deliberately NOT registered in any
        # metrics registry, so snapshots stay identical leap-on/leap-off.
        self.leaps = 0
        self.cycles_elided = 0

    def attempt(self, hi: Optional[int]) -> bool:
        """Try to leap; returns True if virtual time advanced.

        ``hi`` is the run loop's ``until`` bound (events at ``hi`` still
        fire, so it enters the stop-time computation as ``hi + 1``).
        Every exit path leaves the simulation in a state the slow path
        could have produced; False means "nothing provably inert enough".
        Sets ``next_try`` to the leap's bound whenever one is computed
        (nothing can make the world quieter before that event fires),
        else to the end of the 4096 ns window that holds the next event.
        """
        sched = self.sched
        manager = self.manager
        engine = self.engine
        self.next_try = engine.peek_time() | _RETRY_WINDOW
        if (
            sched.tracer.enabled
            or manager.tracer.enabled
            or sched.idle_backoff is not None
            or not sched.true_spin
            or sched.normal_live <= 0
        ):
            return False
        if engine._nowq:
            return False

        # -- per-core eligibility -------------------------------------
        # A core joins the leap only when it is provably mid-steady-state
        # (asleep or mid-cycle, see module docstring), core empty, scan
        # path primed.  Everything else makes its events external.
        sleep_wake = sched._sleep_wake
        advance = sched._advance
        period = sched.machine.spec.probe_cycle_ns
        quantum = sched._quantum_ns
        skew = sched.core_skew
        cur = sched._cur
        rqs = sched._rqs
        in_fast = sched._in_fast
        leap_ready = manager.leap_ready
        blocked = TState.BLOCKED
        running = TState.RUNNING
        plan: list = []  # (cid, idle, carrier, shape, anchor, C_eff)
        carriers: set = set()
        for core in sched.cores:
            cid = core.id
            idle = core.idle_thread
            if idle is None:
                continue
            if (
                idle.multi_flags is not None
                or idle.pending_instr is not None
                or core.last_thread is not idle
                or rqs[cid]
            ):
                continue
            st = idle.state
            if st is blocked:
                ev = idle.sleep_event
                # an idle carrier is known by its callback and the thread
                # it carries.  NB: bound-method *equality* (same
                # __self__, same __func__) — attribute access mints a
                # fresh bound object, so ``is`` would never match the one
                # stored on the carrier
                if (
                    ev is None
                    or not ev.alive
                    or ev.fn != sleep_wake
                    or ev.args[0] is not idle
                    or cur[cid] is not None
                ):
                    continue
                shape = _ASLEEP
                anchor = ev.time  # next wake
            elif st is running:
                # mid-cycle: batched Compute in flight, generator
                # provably suspended at the fast yield
                ce = idle.compute_event
                if (
                    ce is None
                    or not in_fast[cid]
                    or cur[cid] is not idle
                    or idle.resume_value is not None
                ):
                    continue
                ev = ce[0]
                if not ev.alive or ev.fn != advance or ev.args[1] is not idle:
                    continue
                shape = _MIDCYCLE
                anchor = ev.time  # the cycle's completion instant
            else:
                continue
            c = leap_ready(cid)
            if c is None:
                continue
            if skew is not None:
                f = skew[cid]
                if f is not None:
                    c = c * f[0] // f[1]
            # the batched Compute must fit one quantum (no slicing) and
            # the cycle must advance time (guards a degenerate spec);
            # a mid-cycle slice must be the whole batched cost
            if c > quantum or c + period <= 0:
                continue
            if shape == _MIDCYCLE and ce[2] != c:
                continue
            plan.append((cid, idle, ev, shape, anchor, c))
            carriers.add(ev)
        if not plan:
            return False

        # -- leap bound: next event that is not one of our carriers ----
        t_stop = engine.next_external_time(carriers)
        if hi is not None:
            b = hi + 1  # events at hi fire; hi+1 is the exclusive bound
            if t_stop is None or b < t_stop:
                t_stop = b
        if t_stop is None:
            # no external event and no bound: the slow path would spin
            # these carriers forever — preserve that behaviour
            return False
        self.next_try = t_stop
        # Cost check before the merge (the expensive part): a span under
        # two poll cycles replays too little to pay for it
        if t_stop - engine.now < 2 * (plan[0][5] + period):
            return False

        # -- commit set ------------------------------------------------
        # Every planned fire strictly before t_stop commits; nothing
        # after does.  A core whose first pending event is already at or
        # past t_stop stays untouched (its carrier remains queued).
        # Crucially, a cycle may *straddle* t_stop: its wake/dispatch/
        # resume prefix commits and the core exits the leap mid-cycle
        # with its batched-Compute carrier left pending — without this,
        # a leap would need an instant where no core is mid-cycle, which
        # with many phase-drifted cores essentially never exists.
        committed: list = []  # (cid, idle, ev, shape, anchor, c)
        merge: list = []
        for cid, idle, ev, shape, anchor, c in plan:
            if anchor >= t_stop:
                continue
            committed.append((cid, idle, ev, shape, anchor, c))
            heappush(
                merge,
                (anchor, ev.seq, _WAKE if shape == _ASLEEP else _ADV2,
                 len(committed) - 1),
            )
        if not committed:
            return False

        # -- micro-merge: replay the slow path's seq allocation order --
        # The slow path allocates one engine seq at each of the four
        # fires of a cycle (for the event that fire posts) and one
        # run-queue arrival seq at each wake.  Fires interleave across
        # cores in global (time, seq) order, so a 4-kind heap walk over
        # the committed cycles reproduces the allocation stream exactly.
        nseq = engine._seq
        rr = sched._rr_seq
        ncom = len(committed)
        last_adv2 = [0] * ncom
        last_rq = [-1] * ncom
        survivor: list = [None] * ncom  # (wake time, seq) if core exits asleep
        pend: list = [None] * ncom  # (wake, adv2 time, seq) if it exits mid-cycle
        wakes = [0] * ncom
        adv2s = [0] * ncom
        pops = 0
        now_final = engine.now
        # The quiescent stream is periodic: every cycle length the same
        # 4·ncores fires repeat, shifted by L in time and 4·ncores in
        # seq (same-instant cohort order is stable because each wake
        # carrier's seq is allocated at the previous period's matching
        # slot).  Once two consecutive blocks match, the whole remaining
        # middle is a uniform shift of the pending heap — O(cores)
        # instead of O(cycles) — leaving the last few periods to replay
        # explicitly (the terminal survivor/pending decisions happen
        # there).  Per-core skew breaks the common cycle length, so
        # those (rare, fault-run) leaps stay on the explicit walk;
        # identity holds either way.
        n4 = 4 * ncom
        cl0 = committed[0][5] + period
        ring: list = [None] * (2 * n4)
        shifted = any(e[5] != committed[0][5] for e in committed)
        terminal = False
        while merge:
            t, _seq, kind, i = heappop(merge)
            now_final = t
            if kind == _WAKE:
                wakes[i] += 1
                last_rq[i] = rr
                rr += 1
                heappush(merge, (t, nseq, _DISPATCH, i))
            elif kind == _DISPATCH:
                heappush(merge, (t, nseq, _ADV1, i))
            elif kind == _ADV1:
                ta = t + committed[i][5]
                if ta < t_stop:
                    heappush(merge, (ta, nseq, _ADV2, i))
                else:
                    # the cycle straddles t_stop: its completion carrier
                    # stays pending and the core exits mid-cycle
                    pend[i] = (t, ta, nseq)
                    terminal = True
            else:  # _ADV2: cycle complete; arm the next wake
                adv2s[i] += 1
                last_adv2[i] = t
                nt = t + period
                if nt < t_stop:
                    heappush(merge, (nt, nseq, _WAKE, i))
                else:
                    survivor[i] = (nt, nseq)
                    terminal = True
            nseq += 1
            if shifted:
                continue
            ring[pops % (2 * n4)] = (t, kind, i)
            pops += 1
            if terminal or pops < 2 * n4 or pops % n4:
                continue
            base = pops - 2 * n4
            for j in range(n4):
                ea = ring[(base + j) % (2 * n4)]
                eb = ring[(base + n4 + j) % (2 * n4)]
                if ea[1] != eb[1] or ea[2] != eb[2] or eb[0] - ea[0] != cl0:
                    break
            else:
                # two identical blocks: jump all but the last ~3 periods
                # (any cl0-periodic stream has exactly one wake and one
                # completion per core in any whole-period span, so the
                # per-core tallies advance uniformly)
                rem = (t_stop - t) // cl0 - 3
                shifted = True
                if rem > 0:
                    dt = rem * cl0
                    ds = rem * n4
                    # uniform shifts preserve heap order — no re-heapify
                    merge = [(mt + dt, ms + ds, mk, mi) for mt, ms, mk, mi in merge]
                    nseq += ds
                    rr += rem * ncom
                    for x in range(ncom):
                        wakes[x] += rem
                        adv2s[x] += rem

        # -- apply: per-core batched accounting + fresh carriers -------
        # Accounting sides are split per cycle: the wake/dispatch/resume
        # prefix books the IDLE keypoint count, the fast-pass counters
        # and the virtual Compute cost (ADV1 side); the completion books
        # the histogram samples (ADV2 side).  A generator resume replays
        # its own side for real — an entry tail's completion and an exit
        # straddler's prefix — so those are excluded from the batches.
        kp_idle = Keypoint.IDLE
        idle_hist = sched.keypoint_ns[kp_idle]
        busy = sched._busy
        preempt = sched._preempt
        leap_commit = manager.leap_commit
        for i, (cid, idle, ev, shape, anchor, c) in enumerate(committed):
            nw = wakes[i]
            exit_mid = pend[i] is not None
            k1 = nw - 1 if exit_mid else nw
            k2 = adv2s[i] - 1 if shape == _MIDCYCLE else adv2s[i]
            if k1:
                sched.cores[cid].keypoint_counts[kp_idle] += k1
            if k2:
                idle_hist.record_many(c, k2)
            leap_commit(cid, k1, k2, c)
            if nw:
                # every replayed prefix charged one batched Compute (the
                # exit straddler's too — its resume below does not)
                idle.cpu_ns += nw * c
                busy[cid] += nw * c
            if shape == _MIDCYCLE:
                # Entry tail: finish the half-open cycle by resuming the
                # generator across its batched-Compute yield with the
                # clock staged to the completion instant — the generator
                # records the pass's histogram samples itself and lands
                # suspended at the cycle Sleep, the asleep steady state.
                engine.now = anchor
                nxt = idle.gen.send(None)
                if nxt.__class__ is not Sleep or nxt.ns != period:
                    raise RuntimeError(
                        "quiescence leap: mid-cycle resume did not yield "
                        f"the probe sleep (got {nxt!r})"
                    )
                idle.compute_event = None
            # the old carrier's fire was replayed as this core's seed
            # event; kill the queued entry (lazily drained)
            ev.cancel()
            if exit_mid:
                # Exit straddler: move the generator from the cycle
                # Sleep to the fast-path Compute yield (one resume — it
                # books the pass's count and fast-pass counters itself),
                # then emulate _advance's Compute slice: pending
                # completion carrier, core left running the batch.
                wlast, ta, cseq = pend[i]
                engine.now = wlast
                instr = idle.gen.send(None)
                ns = instr.ns if instr.__class__ is Compute else None
                if ns is not None and skew is not None:
                    f = skew[cid]
                    if f is not None:
                        ns = ns * f[0] // f[1]
                if ns != c:
                    raise RuntimeError(
                        "quiescence leap: straddling-cycle resume did not "
                        f"yield the batched pass Compute (got {instr!r})"
                    )
                nev = Event(ta, cseq, advance, (cid, idle))
                nev._engine = engine
                engine._live += 1
                engine._enqueue((ta, cseq, None, nev))
                idle.compute_event = (nev, wlast, c)
                idle.sleep_event = None
                idle.state = TState.RUNNING
                idle.blocked_on = ""
                cur[cid] = idle
                idle.instr_start = wlast
            else:
                # exits asleep: what the slow path's Sleep handler would
                # leave — BLOCKED on "sleep", core released (run queue
                # empty: checked at eligibility, nothing enqueues during
                # a leap), fresh carrier at the merge-computed slot
                idle.state = TState.BLOCKED
                idle.blocked_on = "sleep"
                cur[cid] = None
                preempt[cid] = False
                st, ss = survivor[i]
                nev = Event(st, ss, sleep_wake, (idle,))
                nev._engine = engine
                engine._live += 1
                engine._enqueue((st, ss, None, nev))
                idle.sleep_event = nev
                idle.instr_start = last_adv2[i]
            if last_rq[i] >= 0:
                idle.rq_seq = last_rq[i]
        engine._seq = nseq
        sched._rr_seq = rr
        engine.fired += 3 * sum(wakes) + sum(adv2s)
        engine.now = now_final
        self.leaps += 1
        self.cycles_elided += sum(adv2s)
        return True
