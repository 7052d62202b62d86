"""tools/make_experiments.py's command line, parsed without running the
experiments: ``--jobs`` speaks the same dialect as every bench command,
and the script runs from a checkout."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_spec = importlib.util.spec_from_file_location(
    "make_experiments", os.path.join(ROOT, "tools", "make_experiments.py")
)
make_experiments = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_experiments)

EVERY_CPU = os.cpu_count() or 1


@pytest.mark.parametrize("argv, jobs", [
    ([], 1),
    (["--jobs", "auto"], EVERY_CPU),
    (["--jobs", "0"], EVERY_CPU),
    (["--jobs", "3"], 3),
])
def test_jobs_takes_auto_zero_and_counts(argv, jobs):
    assert make_experiments.parser().parse_args(argv).jobs == jobs


def test_negative_jobs_fails_at_parse_time(capsys):
    with pytest.raises(SystemExit) as exc:
        make_experiments.parser().parse_args(["--jobs", "-1"])
    assert exc.value.code == 2
    assert "argument --jobs: " in capsys.readouterr().err.splitlines()[-1]


def test_runs_from_a_checkout_without_an_install():
    """``-S`` skips site-packages, so an editable install cannot supply
    the package: the script finds ``src/`` itself."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-S", os.path.join("tools", "make_experiments.py"), "--help"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Regenerate EXPERIMENTS.md" in proc.stdout
