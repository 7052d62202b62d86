"""tools/make_experiments.py without running the experiments: ``--jobs``
speaks the same dialect as every bench command, the script runs from a
checkout and writes the checkout's EXPERIMENTS.md, and a result that
breaks a paper shape fails the check before anything is written."""

import importlib.util
import os
import subprocess
import sys

import pytest

from repro.bench.latency import LatencyPoint, LatencySeries
from repro.bench.task_microbench import MicrobenchResult, RowResult

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


def test_writes_the_checkouts_file_from_any_directory():
    assert make_experiments.OUT == os.path.join(ROOT, "EXPERIMENTS.md")


def _fig4(pioman_growth):
    """A Fig. 4 result over 1-128 threads: MVAPICH's latency grows 10x,
    PIOMan's ``pioman_growth``-fold, geometrically in the thread count."""
    def series(impl, growth):
        return LatencySeries(impl, [
            LatencyPoint(n, 10_000 * growth ** (i / 7), 0, 0)
            for i, n in enumerate((1, 2, 4, 8, 16, 32, 64, 128))
        ])
    return [series("MVAPICH", 10.0), series("PIOMan", pioman_growth)]


def test_check_rejects_a_pioman_latency_that_doubles():
    make_experiments.check_fig4(_fig4(1.0))
    with pytest.raises(AssertionError, match="PIOMan not flat at 16 threads"):
        make_experiments.check_fig4(_fig4(2.0))


def _flat_table():
    """A Table I result whose global queue costs what a per-core queue
    does: the hierarchy the paper argues for would buy nothing."""
    def row(label, cpus):
        return RowResult(label, cpus, 1_000, 1_000, 1_000,
                         {c: 1 / len(cpus) for c in cpus})
    return MicrobenchResult(
        "borderline", 8,
        per_core=[row(f"core#{c}", [c]) for c in range(8)],
        per_level={"chip": [row("chip#0", [0, 1])]},
        global_row=row("global", list(range(8))),
    )


def test_a_failing_shape_exits_non_zero_and_writes_nothing(tmp_path, monkeypatch):
    out = tmp_path / "EXPERIMENTS.md"
    out.write_text("the committed report\n")
    monkeypatch.setattr(make_experiments, "OUT", str(out))
    monkeypatch.setattr(make_experiments, "run_jobs_strict",
                        lambda specs, jobs: [_flat_table()] * len(specs))
    with pytest.raises(AssertionError):
        make_experiments.main([])
    assert out.read_text() == "the committed report\n"


def test_refuses_to_run_with_its_asserts_stripped(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-O", os.path.join(ROOT, "tools", "make_experiments.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "run it without -O" in proc.stderr
