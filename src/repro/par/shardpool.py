"""Persistent workers holding live state — ``repro.par.shardpool``.

:func:`repro.par.run_jobs` is one-shot by design: a process per job, no
reuse, results merged at the end.  Sharded cluster simulation needs the
opposite shape — a *long-lived* worker per shard that keeps an
:class:`~repro.sim.engine.Engine` (plus fabric, nodes, workload
generators) alive across hundreds of synchronization windows, exchanging
small messages with the coordinator at each barrier.  Tearing the world
down and rebuilding it per window would dwarf the simulation itself.

:class:`ShardPool` is that shape, K states on K processes:

* ``specs[0]``'s state is **hosted** — built and served in the calling
  process — and every other spec gets a forked worker that runs the
  spec's target to build its **state object**, then serves method calls
  over its pipe until told to stop (request/reply, strictly one
  outstanding call per worker).  The workers are forked before the
  hosted state is built, so the builds overlap and no child inherits the
  hosted world;
* :meth:`ShardPool.scatter` writes every forked request, then calls the
  hosted state, then reads every forked reply — the caller computes a
  shard during each call instead of sleeping on pipes;
* a worker that raises reports the exception in-band (with its remote
  traceback) and **stays alive** — simulation state is expensive, and a
  window-level protocol error should surface to the caller, not silently
  rebuild the world.  Every reply is read before the first error is
  raised, so the pipes stay in step for the next call;
* ``serial=True`` (or a platform without ``fork``) hosts every state
  in-process — the same oracle equivalence :func:`run_jobs`'s serial
  fallback provides, and the only mode available inside a daemonic
  ``run_jobs`` worker (daemons may not fork children).

Determinism is the caller's contract, same as :mod:`repro.par.pool`:
state construction and every method call must depend only on the spec
and the call arguments, never on scheduling.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Optional, Sequence

from repro.par.jobs import JobSpec
from repro.par.pool import check_timeout, has_fork

#: wire tokens: parent -> worker requests, worker -> parent replies
_CALL, _STOP = "call", "stop"
_OK, _ERR = "ok", "err"


class ShardPoolError(RuntimeError):
    """A worker raised, died, timed out, or could not build its state.

    ``shard`` names the failing worker's spec when one worker is to
    blame (``None`` for pool-level errors such as a closed pool).
    """

    def __init__(self, message: str, *, shard: Optional[str] = None) -> None:
        super().__init__(message)
        self.shard = shard


def _shard_entry(spec: JobSpec, conn) -> None:
    """Worker body: build the state object, then serve calls until stop.

    Exceptions during a call are reported in-band and the loop continues;
    only an exception during *construction* ends the worker (there is no
    state to serve).  Runs inside the forked child.
    """
    try:
        state = spec.run()
    except BaseException as exc:
        try:
            conn.send((_ERR, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        conn.close()
        return
    conn.send((_OK, None))  # construction ack
    while True:
        try:
            request = conn.recv()
        except EOFError:
            break
        if request[0] == _STOP:
            try:
                conn.send((_OK, None))
            except Exception:
                pass
            break
        _, method, args, kwargs = request
        try:
            value = getattr(state, method)(*args, **kwargs)
            try:
                conn.send((_OK, value))
            except Exception as exc:  # unpicklable reply: report in-band
                conn.send((_ERR, f"reply not picklable: {exc!r}"))
        except BaseException:
            conn.send((_ERR, traceback.format_exc(limit=8)))
    conn.close()


class ShardPool:
    """K long-lived stateful workers, one per spec: ``specs[0]`` hosted
    in the caller, the rest forked (all hosted when ``serial``).

    ``specs[i]``'s target builds worker *i*'s state object; thereafter
    :meth:`call`, :meth:`broadcast` and :meth:`scatter` invoke methods on
    it.  Construction blocks until every state is built, so a builder
    that raises fails the constructor with :class:`ShardPoolError` — not
    the first window — after the forked workers are reaped.

    ``timeout_s`` bounds every forked reply (None = unlimited); a hosted
    call runs in the caller and cannot be bounded.  Any worker death or
    timeout poisons the pool: it raises :class:`ShardPoolError` and every
    subsequent call raises too, because a shard's state cannot be
    reconstructed mid-protocol.  A method that raises — hosted or forked
    — surfaces as :class:`ShardPoolError` naming the worker; a hosted
    one is chained from the original exception.

    ``reply_wait_s`` sums, over every :meth:`scatter`, the host seconds
    spent reading forked replies after the hosted calls returned — how
    long the caller sat on the barrier.
    """

    def __init__(
        self,
        specs: Sequence[JobSpec],
        *,
        serial: bool = False,
        timeout_s: Optional[float] = None,
    ) -> None:
        if not specs:
            raise ValueError("ShardPool needs at least one spec")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names: {names}")
        check_timeout(timeout_s)
        self.specs = list(specs)
        self.n = len(specs)
        self.timeout_s = timeout_s
        # a single state is hosted like a serial pool's: nothing forks
        self.serial = bool(serial) or self.n == 1 or not has_fork()
        self.reply_wait_s = 0.0
        self._closed = False
        self._poisoned: Optional[str] = None
        #: worker index -> live state object (hosted) or pipe + process
        self._states: dict[int, Any] = {}
        self._conns: dict[int, Any] = {}
        self._procs: dict[int, Any] = {}
        hosted = range(self.n) if self.serial else range(1)
        try:
            if not self.serial:
                import multiprocessing

                ctx = multiprocessing.get_context("fork")
                for i in range(1, self.n):
                    parent_end, child_end = ctx.Pipe(duplex=True)
                    proc = ctx.Process(
                        target=_shard_entry, args=(self.specs[i], child_end),
                        name=f"repro-shard-{names[i]}", daemon=True,
                    )
                    proc.start()
                    child_end.close()
                    self._conns[i] = parent_end
                    self._procs[i] = proc
            for i in hosted:
                try:
                    self._states[i] = self.specs[i].run()
                except Exception as exc:
                    raise ShardPoolError(
                        f"shard {names[i]!r} failed to build: "
                        f"{type(exc).__name__}: {exc}",
                        shard=names[i],
                    ) from exc
            for i in self._conns:
                status, payload = self._recv(i)
                if status != _OK:
                    raise ShardPoolError(
                        f"shard {names[i]!r} failed to build: {payload}",
                        shard=names[i],
                    )
        except BaseException:
            self._terminate()
            raise
        self._pids = [
            self._procs[i].pid if i in self._procs else None
            for i in range(self.n)
        ]

    @property
    def pids(self) -> list[Optional[int]]:
        """Worker pids, ``None`` for every hosted (in-process) state."""
        return list(self._pids)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _recv(self, index: int):
        conn = self._conns[index]
        name = self.specs[index].name
        if self.timeout_s is not None:
            deadline = time.monotonic() + self.timeout_s
            while not conn.poll(min(0.2, self.timeout_s)):
                if time.monotonic() >= deadline:
                    self._poison(
                        f"shard {name!r} reply timed out "
                        f"after {self.timeout_s:g}s", name,
                    )
                if not self._procs[index].is_alive():
                    self._poison(
                        f"shard {name!r} died "
                        f"(exit {self._procs[index].exitcode})", name,
                    )
        try:
            return conn.recv()
        except (EOFError, OSError):
            self._poison(
                f"shard {name!r} died (exit {self._procs[index].exitcode})",
                name,
            )

    def _poison(self, message: str, shard: Optional[str] = None):
        self._poisoned = message
        self._terminate()
        raise ShardPoolError(message, shard=shard)

    def _check(self) -> None:
        if self._poisoned is not None:
            raise ShardPoolError(f"pool is poisoned: {self._poisoned}")
        if self._closed:
            raise ShardPoolError("pool is closed")

    def _host(self, index: int, method: str, args, kwargs):
        """Call a hosted state: ``(_OK, value)`` or ``(_ERR, exception)``.

        Anything beyond an ``Exception`` (KeyboardInterrupt, SystemExit)
        kills the forked workers: their replies would go unread."""
        try:
            return _OK, getattr(self._states[index], method)(*args, **kwargs)
        except Exception as exc:
            return _ERR, exc
        except BaseException:
            self._poisoned = "interrupted during a hosted call"
            self._terminate()
            raise

    def _unwrap(self, index: int, reply):
        """A reply's value, or :class:`ShardPoolError` naming the worker."""
        status, payload = reply
        if status == _OK:
            return payload
        name = self.specs[index].name
        if isinstance(payload, BaseException):  # a hosted call raised
            raise ShardPoolError(
                f"shard {name!r} raised: {type(payload).__name__}: {payload}",
                shard=name,
            ) from payload
        raise ShardPoolError(f"shard {name!r} raised:\n{payload}", shard=name)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def call(self, index: int, method: str, *args, **kwargs):
        """Invoke ``method`` on worker ``index``'s state; return its value."""
        self._check()
        if index in self._states:
            return self._unwrap(index, self._host(index, method, args, kwargs))
        self._conns[index].send((_CALL, method, args, kwargs))
        return self._unwrap(index, self._recv(index))

    def broadcast(self, method: str, *args, **kwargs) -> list:
        """Invoke ``method`` with the *same* arguments on every worker."""
        return self.scatter(method, [args] * self.n, [kwargs] * self.n)

    def scatter(
        self,
        method: str,
        args_per_worker: Sequence[tuple],
        kwargs_per_worker: Optional[Sequence[dict]] = None,
    ) -> list:
        """Invoke ``method`` with per-worker arguments; returns values in
        worker order.  Forked requests are written first, then the
        hosted states are called, then every forked reply is read, so
        the caller computes while the forked workers do."""
        self._check()
        if len(args_per_worker) != self.n:
            raise ValueError(
                f"scatter needs {self.n} argument tuples, "
                f"got {len(args_per_worker)}"
            )
        if kwargs_per_worker is None:
            kwargs_per_worker = [{}] * self.n
        for i, conn in self._conns.items():
            conn.send(
                (_CALL, method, tuple(args_per_worker[i]),
                 dict(kwargs_per_worker[i]))
            )
        replies: list = [None] * self.n
        for i in self._states:
            replies[i] = self._host(
                i, method, args_per_worker[i], kwargs_per_worker[i]
            )
        if self._conns:
            t0 = time.perf_counter()
            for i in self._conns:
                replies[i] = self._recv(i)
            self.reply_wait_s += time.perf_counter() - t0
        # every reply is in: raise the first failure in worker order
        return [self._unwrap(i, reply) for i, reply in enumerate(replies)]

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def _terminate(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except Exception:
                pass
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)
                if proc.is_alive():
                    proc.kill()
            proc.join()
        self._conns, self._procs = {}, {}
        self._states = {}

    def close(self) -> None:
        """Stop every worker (graceful stop, then terminate stragglers)."""
        if self._closed:
            return
        self._closed = True
        if self._poisoned is None:
            for conn in self._conns.values():
                try:
                    conn.send((_STOP,))
                except Exception:
                    pass
            deadline = time.monotonic() + 5.0
            for proc in self._procs.values():
                proc.join(max(0.0, deadline - time.monotonic()))
        self._terminate()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
