"""The one fork primitive of both process pools — ``repro.par.fork``.

:func:`repro.par.run_jobs` and :class:`repro.par.ShardPool` need little
of a process library: fork a child that runs one function, exchange
objects with it over pipes, wait for a message with a time limit, and
learn how the child ended.  :func:`start` does that with :func:`os.fork`
and two pipes, one each way:

* a message is its length (8 bytes, big-endian) followed by
  ``pickle.dumps(obj, HIGHEST_PROTOCOL)``; reads and writes loop over
  short transfers, and a pipe that ends before a whole message raises
  :class:`EOFError`;
* :meth:`Conn.poll` and :func:`wait` ask :func:`select.select`;
* a :class:`Child` reads its exit status with :func:`os.waitpid`; a
  child ended by a signal reports minus the signal (``-9`` for SIGKILL);
* the parent flushes ``sys.stdout`` and ``sys.stderr`` before it forks,
  so no buffered line is written twice;
* the child closes every pipe end but its own two, including those the
  parent holds for children forked earlier.  Its parent is then the
  only other holder of its pipes, so if the parent dies, however it
  dies, the child reads end-of-file instead of waiting forever.  It runs
  its body, flushes stdio and leaves through :func:`os._exit`, so no
  ``atexit`` handler or finalizer of the parent runs twice.

A fork copies only the calling thread, so forking is safe only in a
process that runs no other thread; the simulator starts none.  The
pools import this module only where they fork: a process that never
forks loads neither it nor :mod:`pickle`.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import time
from typing import Callable, Optional

#: bytes of the length prefix in front of every message
_PREFIX = 8
#: pipe ends this process holds for its channels, whichever pool opened
#: them: a new child closes them all, so this is per process, not per pool
_held: set = set()


def _flush() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):  # None or closed
            pass


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytearray:
    buf = bytearray(size)
    view = memoryview(buf)
    got = 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if not n:
            raise EOFError(f"pipe closed after {got} of {size} bytes")
        got += n
    return buf


class Conn:
    """One side of a channel: a pipe end to read and one to write."""

    __slots__ = ("_rfd", "_wfd")

    def __init__(self, rfd: int, wfd: int) -> None:
        self._rfd, self._wfd = rfd, wfd
        _held.update((rfd, wfd))

    def fileno(self) -> int:
        """The read end, so :func:`select.select` can watch it."""
        return self._rfd

    def send(self, obj) -> None:
        """Write one object; an unpicklable one raises before any byte
        leaves, so the channel stays in step."""
        data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        _write(self._wfd, len(data).to_bytes(_PREFIX, "big") + data)

    def recv(self):
        """Read one object; :class:`EOFError` when the other side is gone."""
        size = int.from_bytes(_read(self._rfd, _PREFIX), "big")
        return pickle.loads(_read(self._rfd, size))

    def poll(self, timeout: Optional[float] = 0.0) -> bool:
        """Whether a message (or end-of-file) is ready within ``timeout``."""
        return bool(select.select([self._rfd], [], [], timeout)[0])

    def close(self) -> None:
        """Close both ends; closing again does nothing."""
        for fd in (self._rfd, self._wfd):
            if fd >= 0:
                _held.discard(fd)
                os.close(fd)
        self._rfd = self._wfd = -1


def wait(conns: list, timeout: Optional[float]) -> list:
    """The members of ``conns`` ready to read within ``timeout`` seconds
    (``None``: no limit)."""
    return select.select(conns, [], [], timeout)[0]


class Child:
    """A forked child: its ``pid``, whether it runs, how it ended, and
    the means to stop it."""

    __slots__ = ("pid", "_code")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self._code: Optional[int] = None

    def _reap(self, flags: int) -> Optional[int]:
        if self._code is None:
            pid, status = os.waitpid(self.pid, flags)
            if pid:
                self._code = os.waitstatus_to_exitcode(status)
        return self._code

    @property
    def exitcode(self) -> Optional[int]:
        """``None`` while the child runs, then its exit status, or minus
        the signal that ended it."""
        return self._reap(os.WNOHANG)

    def is_alive(self) -> bool:
        return self.exitcode is None

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)

    def _signal(self, signum: int) -> None:
        # never signal a reaped pid: it may name another process by now
        if self.exitcode is None:
            os.kill(self.pid, signum)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait until the child ends, or ``timeout`` seconds pass."""
        if timeout is None:
            self._reap(0)
            return
        deadline = time.monotonic() + timeout
        pause = 0.0005
        while self.exitcode is None:
            left = deadline - time.monotonic()
            if left <= 0:
                return
            time.sleep(min(pause, left))
            pause = min(2 * pause, 0.05)


def start(body: Callable, *args) -> tuple[Child, Conn]:
    """Fork a child that runs ``body(*args, conn)``, ``conn`` being its
    side of a new channel, and exits; return the child and this
    process's side."""
    down, up = os.pipe(), os.pipe()  # down: parent -> child; up: the reverse
    _flush()
    try:
        pid = os.fork()
    except BaseException:
        for fd in down + up:
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in (*_held, down[1], up[0]):
                os.close(fd)
            _held.clear()
            body(*args, Conn(down[0], up[1]))
            code = 0
        except BaseException:
            import traceback

            traceback.print_exc()
        finally:
            _flush()
            os._exit(code)
    os.close(down[0])
    os.close(up[1])
    return Child(pid), Conn(up[0], down[1])
