"""Importable job targets for the repro.par failure-path tests.

Workers resolve targets by dotted path, so everything a test job runs
must live at module level in an importable module — this one.
"""

from __future__ import annotations

import os
import time


def echo(value):
    """The identity job: returns its argument."""
    return value


def add(a, b):
    return a + b


def pid():
    """The process id the job actually ran in."""
    return os.getpid()


def boom(message="kaboom"):
    """A job that raises — a deterministic in-band failure."""
    raise ValueError(message)


def sleepy(seconds=60.0):
    """A job that hangs long enough to trip any sane timeout."""
    time.sleep(seconds)
    return "overslept"


def crash(exit_code=3):
    """A job whose worker dies without reporting (simulates a segfault /
    OOM kill): ``os._exit`` skips all cleanup, so the pipe closes empty."""
    os._exit(exit_code)


def crash_once_then(value, sentinel):
    """Crash on the first attempt, succeed on the retry.

    ``sentinel`` is a path: absent -> create it and die; present ->
    return ``value``.  Deterministic across processes because the file
    system carries the attempt count.
    """
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("attempt 1\n")
        os._exit(9)
    return value


def unpicklable():
    """Returns something pickle rejects (a lambda)."""
    return lambda x: x


def sleepy_echo(value, seconds=0.05):
    """Sleep briefly, then return — finishes well inside any sane limit
    (used to prove a finished job is never mislabelled a timeout)."""
    time.sleep(seconds)
    return value


def sleep_then_crash(seconds=0.4, exit_code=7):
    """Outlive the deadline, then die without reporting: the wedged-then-
    crashed worker the crash-at-deadline terminal path is about."""
    time.sleep(seconds)
    os._exit(exit_code)


class Counter:
    """A stateful ShardPool target: state that must survive across calls
    is the whole point of the pool."""

    def __init__(self, start=0):
        self.value = start

    def bump(self, by=1):
        self.value += by
        return self.value

    def get(self):
        return self.value

    def where(self):
        return os.getpid()

    def boom(self, message="window error"):
        raise RuntimeError(message)

    def nap(self, seconds):
        time.sleep(seconds)
        return "rested"

    def opaque(self):
        return lambda x: x  # unpicklable on purpose

    def exit(self, code=None):
        """Die without a reply, with ``code`` (no argument: reply)."""
        if code is not None:
            os._exit(code)
        return self.value

    def kill(self, signum=None):
        """Die by signal ``signum`` without a reply (no argument: reply)."""
        if signum is not None:
            os.kill(os.getpid(), signum)
            time.sleep(60)
        return self.value


def make_counter(start=0):
    """ShardPool spec target returning the live state object."""
    return Counter(start)

