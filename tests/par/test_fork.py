"""The fork primitive under both pools: messages of any size in both
directions, end-of-file, exit statuses, and the pipe ends a child must
not keep."""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.par.pool import has_fork

pytestmark = pytest.mark.skipif(not has_fork(), reason="platform cannot fork")

if has_fork():
    from repro.par.fork import start, wait

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def echo(conn):
    """Send back every message until end-of-file."""
    while True:
        try:
            conn.send(conn.recv())
        except EOFError:
            return


def idle(conn):
    """Read until end-of-file."""
    try:
        conn.recv()
    except EOFError:
        pass


def exit_with(code, conn):
    os._exit(code)


def test_messages_of_every_size_round_trip():
    child, conn = start(echo)
    # up to far beyond a pipe's buffer, so reads and writes come short
    for obj in [None, ("call", "window", ([1, 2],), {}), "x" * 70_000,
                list(range(300_000))]:
        conn.send(obj)
        assert conn.recv() == obj
    conn.close()
    child.join(10)
    assert child.exitcode == 0


def test_end_of_file_is_an_eof_error():
    child, conn = start(exit_with, 0)
    child.join(10)
    assert wait([conn], 5.0) == [conn]  # end-of-file is ready to read
    with pytest.raises(EOFError):
        conn.recv()
    conn.close()
    conn.close()  # closing again does nothing


def test_exit_status_of_an_exit():
    child, conn = start(exit_with, 5)
    child.join(10)
    assert child.exitcode == 5 and not child.is_alive()
    conn.close()


@pytest.mark.parametrize("stop,signum", [
    ("kill", signal.SIGKILL), ("terminate", signal.SIGTERM),
])
def test_exit_status_of_a_signal(stop, signum):
    child, conn = start(idle)
    t0 = time.monotonic()
    child.join(0.05)  # a join that times out returns
    assert time.monotonic() - t0 >= 0.05
    assert child.is_alive() and child.exitcode is None
    getattr(child, stop)()
    child.join(10)
    assert child.exitcode == -signum and not child.is_alive()
    child.kill()  # a reaped child is never signalled
    conn.close()


def test_a_child_keeps_no_pipe_end_of_an_earlier_child():
    """``first`` exits on end-of-file once this process closes its side,
    although ``second`` was forked while that side was open."""
    first, first_conn = start(idle)
    second, second_conn = start(idle)
    first_conn.close()
    first.join(10)
    assert first.exitcode == 0
    assert second.is_alive()
    second_conn.close()
    second.join(10)
    assert second.exitcode == 0


def test_buffered_output_is_written_once():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from repro.par.fork import start\n"
        "print('once', end='')\n"  # buffered: stdout is a pipe
        "child, conn = start(lambda conn: None)\n"
        "child.join(30)\n"
        "assert child.exitcode == 0\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "once"
