"""tools/check_fork.py passes on this interpreter, from a checkout."""

import os
import subprocess
import sys

import pytest

from repro.par.pool import has_fork

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.skipif(not has_fork(), reason="platform cannot fork")
def test_fork_check_passes_without_an_install():
    """``-S`` skips site-packages: the script finds ``src/`` and the test
    helpers' package itself, as it must on an interpreter without pytest."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-S", os.path.join("tools", "check_fork.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("ok: python ")
