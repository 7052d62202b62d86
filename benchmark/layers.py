"""Per-layer instrumentation installed from outside the package.

A :class:`Probe` wraps a handful of public layer entry points at class
level, so every instance built afterwards (forked shards included) is
covered without touching ``src/``:

* ``Scheduler.spawn`` — the virtual time the last application thread
  finished (the makespan);
* ``QuiescenceLeap.attempt`` — attempts, successes, and the engine's
  ``fired`` delta across successful attempts (the events the leap
  replays instead of executing);
* every concrete ``Engine.next_external_time`` — call count;
* ``ShardRunner.window`` / ``finalize`` — per-window shard compute time,
  shipped back to the coordinator in the finalize report;
* ``ShardPool.scatter`` — coordinator time per window, cross-shard
  frames, and the end of set-up (its first call follows the fork and the
  shard builds).

These wrappers cost O(threads + windows + leap attempts) and stay on in
timed runs.  With ``profile=True`` the probe also runs cProfile over the run
phase of every process (the coordinator outside ``scatter``, each shard
inside ``window``), and :func:`layer_metrics` groups ``tottime`` by
``src/repro/<layer>/``.
"""

from __future__ import annotations

import cProfile
import os
import re
import time
from typing import Optional

#: package layers the ledger reports, in ``src/repro/<layer>/``
LAYERS = (
    "sim", "threads", "core", "sync", "mem", "topology",
    "net", "nmad", "mpi", "cluster", "par", "obs",
)
#: layers every workload runs, reported in seconds as well as shares: an
#: idle layer's seconds would read exactly 0 on every run, which says no
#: more than its share does
TIMED_LAYERS = ("sim", "threads", "core", "sync", "mem", "topology", "obs")
#: everything not in a layer: C functions, and Python outside the layers
#: (standard library, the benchmark itself, unused repro packages)
OTHER_GROUPS = ("builtins", "other")
_LAYER_PATH = re.compile(r"[\\/]src[\\/]repro[\\/](\w+)[\\/]")

COUNTS = (
    "leap_attempts", "leap_successes", "events_replayed", "cycles_elided",
    "next_external_calls",
)


def group_of(filename: str) -> str:
    """The ledger group of a cProfile ``filename`` entry."""
    if filename == "~":
        return "builtins"
    m = _LAYER_PATH.search(filename)
    if m and m.group(1) in LAYERS:
        return m.group(1)
    return "other"


def grouped_tottime(prof: cProfile.Profile) -> dict:
    """Seconds of self time per ledger group."""
    prof.create_stats()
    out = dict.fromkeys(LAYERS + OTHER_GROUPS, 0.0)
    for (filename, _line, _func), (_cc, _nc, tt, _ct, _callers) in prof.stats.items():
        out[group_of(filename)] += tt
    return out


class _ShardLedger:
    """Per-runner state: window compute times and the shard's profiler."""

    def __init__(self, profile: bool) -> None:
        self.compute_s: list = []
        self.prof = cProfile.Profile() if profile else None


class Probe:
    """Set-up/run clock plus the class-level wrappers (module docstring).

    Use as a context manager: the wrappers are installed on entry and the
    original methods restored on exit.
    """

    def __init__(self, *, profile: bool = False) -> None:
        self.profile = profile
        self.t_setup: Optional[float] = None
        self.t_run: Optional[float] = None
        self._prof = cProfile.Profile() if profile else None
        self._profiling = False
        self.counts = dict.fromkeys(COUNTS, 0)
        #: virtual time the last application thread finished (this process)
        self.last_exit_ns = 0
        self.scatter_s: list = []
        self.cross_frames = 0
        self.shard_reports: list = []
        self._pid = os.getpid()
        self._saved: list = []

    # -- clock ----------------------------------------------------------
    def setup_done(self) -> None:
        """End of set-up (first call only); starts the run-phase profile."""
        if self.t_setup is not None:
            return
        self.t_setup = time.monotonic()
        if self._prof is not None:
            self._profiling = True
            self._prof.enable()

    def run_done(self) -> None:
        self.t_run = time.monotonic()
        if self._profiling:
            self._prof.disable()
            self._profiling = False

    # -- wrappers -------------------------------------------------------
    def __enter__(self) -> "Probe":
        from repro.cluster.shard import ShardRunner
        from repro.core.leap import QuiescenceLeap
        from repro.par.shardpool import ShardPool
        from repro.sim.engine import Engine
        from repro.threads.scheduler import Scheduler

        self._patch(Scheduler, "spawn", self._spawn)
        self._patch(QuiescenceLeap, "attempt", self._attempt)
        engines, todo = [], [Engine]
        while todo:
            cls = todo.pop()
            engines.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in engines:
            if "next_external_time" in vars(cls):
                self._patch(cls, "next_external_time", self._next_external_time)
        self._patch(ShardRunner, "window", self._window)
        self._patch(ShardRunner, "finalize", self._finalize)
        self._patch(ShardPool, "scatter", self._scatter)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._profiling:
            self._prof.disable()
            self._profiling = False
        for cls, name, orig in reversed(self._saved):
            setattr(cls, name, orig)
        self._saved = []

    def _patch(self, cls, name: str, make) -> None:
        orig = vars(cls)[name]
        self._saved.append((cls, name, orig))
        setattr(cls, name, make(orig))

    def _spawn(self, orig):
        from repro.threads.thread import Prio

        probe = self

        def spawn(sched, body, core, *, name="", prio=Prio.NORMAL):
            if prio != Prio.NORMAL:  # idle loops never finish
                return orig(sched, body, core, name=name, prio=prio)

            def timed(ctx):
                result = yield from body(ctx)
                probe.last_exit_ns = max(probe.last_exit_ns, ctx.now)
                return result

            return orig(sched, timed, core, name=name, prio=prio)

        return spawn

    def _attempt(self, orig):
        counts = self.counts

        def attempt(leap, hi):
            engine = leap.engine
            fired0 = engine.fired
            cycles0 = leap.cycles_elided
            ok = orig(leap, hi)
            counts["leap_attempts"] += 1
            if ok:
                counts["leap_successes"] += 1
                counts["events_replayed"] += engine.fired - fired0
                counts["cycles_elided"] += leap.cycles_elided - cycles0
            return ok

        return attempt

    def _next_external_time(self, orig):
        counts = self.counts

        def next_external_time(engine, carriers):
            counts["next_external_calls"] += 1
            return orig(engine, carriers)

        return next_external_time

    def _window(self, orig):
        profile = self.profile

        def window(runner, frames, hi):
            ledger = runner.__dict__.get("_bench_ledger")
            if ledger is None:
                ledger = runner._bench_ledger = _ShardLedger(profile)
            if ledger.prof is not None:
                ledger.prof.enable()
            t0 = time.perf_counter()
            out = orig(runner, frames, hi)
            ledger.compute_s.append(time.perf_counter() - t0)
            if ledger.prof is not None:
                ledger.prof.disable()
            return out

        return window

    def _finalize(self, orig):
        probe = self

        def finalize(runner):
            report = orig(runner)
            ledger = runner.__dict__.get("_bench_ledger") or _ShardLedger(False)
            extra = {
                "compute_s": ledger.compute_s,
                "layers": {} if ledger.prof is None else grouped_tottime(ledger.prof),
            }
            if os.getpid() != probe._pid:
                # a forked shard: its counters never reach the coordinator's
                # copy of the probe, so ship them (serial shards share it)
                extra["counts"] = dict(probe.counts)
                extra["last_exit_ns"] = probe.last_exit_ns
            report["bench_probe"] = extra
            return report

        return finalize

    def _scatter(self, orig):
        probe = self

        def scatter(pool, method, *args, **kwargs):
            probe.setup_done()
            if probe._profiling:
                probe._prof.disable()
            t0 = time.perf_counter()
            replies = orig(pool, method, *args, **kwargs)
            dt = time.perf_counter() - t0
            if probe._profiling:
                probe._prof.enable()
            if method == "window":
                probe.scatter_s.append(dt)
                probe.cross_frames += sum(len(reply[0]) for reply in replies)
            elif method == "finalize":
                probe.shard_reports = [reply["bench_probe"] for reply in replies]
            return replies

        return scatter

    # -- results --------------------------------------------------------
    def makespan_ns(self) -> int:
        """Virtual time at which the last application thread finished,
        over every process: the simulated span the workload needed (the
        engine often runs on to the next timer tick before it drains)."""
        return max([self.last_exit_ns]
                   + [r.get("last_exit_ns", 0) for r in self.shard_reports])

    def merged_counts(self) -> dict:
        out = dict(self.counts)
        for report in self.shard_reports:
            for key, value in report.get("counts", {}).items():
                out[key] += value
        return out

    def layer_seconds(self) -> dict:
        """Profiled self time per ledger group, summed over processes
        (profiling probes only)."""
        out = grouped_tottime(self._prof)
        for report in self.shard_reports:
            for key, value in report["layers"].items():
                out[key] += value
        return out


def _total(snapshot: dict, pattern: str) -> float:
    rx = re.compile(pattern)
    return sum(v for k, v in snapshot.items() if rx.search(k))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(outcome, probe: Probe, makespan_ns: int, run_s: float) -> dict:
    """Deterministic per-layer counts plus the probe's host timings.

    Counts come from the public ``MetricsRegistry`` snapshot (merged over
    shards by ``run_sharded``) and the probe's wrappers; the profile
    groups are added only when the probe profiled.
    """
    snap = outcome.snapshot
    counts = probe.merged_counts()
    pm = r"^pioman(@\d+)?\."
    replayed = counts["events_replayed"]
    passes = _total(snap, pm + r"schedule_passes$")
    wait_n = {k[: -len(".count")]: v for k, v in snap.items()
              if re.search(pm + r"latency\.queue_wait\.count$", k)}
    wait_p50 = _ratio(
        sum(n * snap[f"{k}.p50"] for k, n in wait_n.items()), sum(wait_n.values())
    )
    ncores = len([k for k in snap if re.search(r"^sched\..*\.core\d+\.busy_ns$", k)])
    compute = [sum(r["compute_s"]) for r in probe.shard_reports]
    per_window = [max(ws) for ws in zip(*(r["compute_s"] for r in probe.shard_reports))]
    barrier = sum(s - c for s, c in zip(probe.scatter_s, per_window))
    windows = len(probe.scatter_s)
    m = {
        "sim.events_executed": outcome.fired - replayed,
        "sim.events_replayed": replayed,
        "sim.next_external_time.calls": counts["next_external_calls"],
        "core.leap.attempts": counts["leap_attempts"],
        "core.leap.successes": counts["leap_successes"],
        "core.leap.success_ratio": _ratio(counts["leap_successes"], counts["leap_attempts"]),
        "core.leap.cycles_elided": counts["cycles_elided"],
        "core.submits": _total(snap, pm + r"submits$"),
        "core.schedule_passes": passes,
        "core.productive_pass_ratio": _ratio(
            _total(snap, pm + r"latency\.schedule_pass_productive\.count$"), passes
        ),
        "core.summary_hit_ratio": _ratio(_total(snap, pm + r"summary\.summary_hits$"), passes),
        "core.queue_wait_p50_ns": wait_p50,
        "sync.lock_acquires": _total(snap, r"\.lock\.acquires$"),
        "sync.lock_contended_ratio": _ratio(
            _total(snap, r"\.lock\.contended$"), _total(snap, r"\.lock\.acquires$")
        ),
        "sync.lost_race_ratio": _ratio(
            _total(snap, r"\.lost_races$"), _total(snap, r"\.lock_sections$")
        ),
        "mem.miss_ratio": _ratio(
            _total(snap, r"\.mem\.read_misses$"), _total(snap, r"\.mem\.reads$")
        ),
        "mem.transfer_ns_total": _total(snap, r"\.mem\.transfer_ns_total$"),
        "threads.keypoints": _total(snap, r"^sched\..*\.core\d+\.keypoints\.\w+$"),
        "threads.ctx_switches": _total(snap, r"^sched\..*\.core\d+\.ctx_switches$"),
        "threads.busy_frac": _ratio(
            _total(snap, r"^sched\..*\.core\d+\.busy_ns$"), ncores * makespan_ns
        ),
        "net.frames": _total(snap, r"^nic\..*\.frames_sent$"),
        "net.empty_poll_ratio": _ratio(
            _total(snap, r"^nic\..*\.empty_polls$"), _total(snap, r"^nic\..*\.polls$")
        ),
        "nmad.sends": _total(snap, r"^nmad\.node\d+\.sends$"),
        "nmad.rdv_share": _ratio(
            _total(snap, r"^nmad\.node\d+\.rdv_sends$"), _total(snap, r"^nmad\.node\d+\.sends$")
        ),
        "nmad.unexpected_ratio": _ratio(
            _total(snap, r"^nmad\.node\d+\.unexpected_hits$"),
            _total(snap, r"^nmad\.node\d+\.recvs$"),
        ),
        "cluster.shard.windows": windows,
        "cluster.shard.events_per_window": _ratio(outcome.fired - replayed, windows),
        "cluster.shard.cross_frames": probe.cross_frames,
        "cluster.shard.compute_share": _ratio(max(compute, default=0.0), run_s),
        "cluster.shard.barrier_wait_share": _ratio(barrier, run_s),
        "cluster.shard.imbalance": _ratio(max(compute, default=0.0),
                                          _ratio(sum(compute), len(compute))),
    }
    if probe.profile:
        seconds = probe.layer_seconds()
        total = sum(seconds.values())
        for group in TIMED_LAYERS:
            m[f"{group}.self_s"] = seconds[group]
        for group in LAYERS + OTHER_GROUPS:
            m[f"{group}.share"] = _ratio(seconds[group], total)
    return m
