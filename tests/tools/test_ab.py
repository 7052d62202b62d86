"""tools/ab.py: verdicts on paired samples, the wall gate on synthetic
records, and one real A/B run inside a throwaway clone of the repository
(so no worktree is ever added to the checkout under test)."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
AB = os.path.join(ROOT, "tools", "ab.py")

_spec = importlib.util.spec_from_file_location("ab", AB)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)

LOWER = {"name": "wall_s", "better": "lower", "bound": 0.24}
HIGHER = {"name": "sim_ns_per_wall_s", "better": "higher", "bound": 0.24}
REF = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------
def test_gain_wins_nine_tenths_with_a_gap_beyond_the_ref_spread():
    r = ab.verdict(LOWER, REF, [x * 0.8 for x in REF])
    assert (r["verdict"], r["wins"], r["pairs"]) == ("gain", 10, 10)
    assert r["ratio"] == pytest.approx(0.8)
    assert ab.verdict(HIGHER, REF, [x * 1.25 for x in REF])["verdict"] == "gain"


def test_eight_wins_of_ten_is_parity_not_gain():
    new = [x * 0.8 for x in REF]
    new[0] = new[1] = 2.0
    r = ab.verdict(LOWER, REF, new)
    assert (r["verdict"], r["wins"]) == ("parity", 8)


def test_worse_beyond_the_bound():
    assert ab.verdict(LOWER, REF, [x * 1.3 for x in REF])["verdict"] == "worse"
    assert ab.verdict(HIGHER, REF, [x * 0.7 for x in REF])["verdict"] == "worse"
    assert ab.verdict(LOWER, REF, [x * 1.2 for x in REF])["verdict"] == "parity"


def test_unresolved_when_the_ref_spread_exceeds_the_bound():
    ref = [1.0, 1.6] * 5
    assert ab.verdict(LOWER, ref, list(ref))["verdict"] == "unresolved"


def test_ties_count_for_neither_side():
    for metric in (LOWER, HIGHER):
        r = ab.verdict(metric, REF, list(REF))
        assert (r["verdict"], r["wins"], r["ratio"]) == ("parity", 0, 1.0)


def test_fewer_than_five_pairs_never_resolve():
    ref = [1.0, 1.0, 1.0, 1.0]
    assert ab.verdict(LOWER, ref, [0.5] * 4)["verdict"] == "unresolved"
    assert ab.verdict(LOWER, ref, [2.0] * 4)["verdict"] == "unresolved"


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
def test_the_gate_compares_exactly_the_28_simulated_metrics():
    exact = [m["name"] for m in CONTRACT["per_layer"] if ab.simulated(m["name"])]
    assert len(exact) == 28
    assert "sim.events_executed" in exact and "cluster.shard.windows" in exact
    assert "nmad.rdv_share" in exact  # a simulated ratio, not a time share
    assert not {"sim.self_s", "core.share", "trace.overhead",
                "cluster.shard.imbalance"} & set(exact)


def _smoke_doc():
    return {"workloads": [
        {
            "workload": name, "size": "smoke",
            "summary": {m["name"]: {"median": 1.0 + i} for i, m in
                        enumerate(CONTRACT["end_to_end"])},
            "layers": {m["name"]: 100 + i for i, m in
                       enumerate(CONTRACT["per_layer"])},
        }
        for name in ("idle_poll", "cluster_rpc")
    ]}


def _gate(tmp_path, record, run, base=None):
    """Gate ``run``; ``base=None`` passes the record as the base, as CI
    does when a change touches the benchmark itself."""
    paths = []
    for tag, doc in (("record", record), ("run", run), ("base", base or record)):
        paths.append(tmp_path / f"{tag}.json")
        paths[-1].write_text(json.dumps(doc))
    return ab.main(["--gate", *map(str, paths)])


def test_gate_passes_within_twice_the_record(tmp_path, capsys):
    run = _smoke_doc()
    run["workloads"][0]["summary"]["wall_s"]["median"] *= 1.9
    run["workloads"][0]["summary"]["sim_ns_per_wall_s"]["median"] /= 1.9
    run["workloads"][1]["layers"]["sim.self_s"] += 1  # host time: not compared
    run["workloads"][1]["layers"]["cluster.shard.imbalance"] += 1
    assert _gate(tmp_path, _smoke_doc(), run) == 0
    assert "gate ok: 2 workloads" in capsys.readouterr().out


def test_gate_fails_on_a_simulated_metric_off_by_one(tmp_path, capsys):
    record = _smoke_doc()
    record["workloads"][1]["layers"]["core.schedule_passes"] += 1
    assert _gate(tmp_path, record, _smoke_doc()) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("GATE FAILED: cluster_rpc: core.schedule_passes ")


def _three_times_better(doc, metric):
    better = next(m["better"] for m in CONTRACT["end_to_end"] if m["name"] == metric)
    doc["workloads"][0]["summary"][metric]["median"] *= 3 if better == "higher" else 1 / 3
    return doc


@pytest.mark.parametrize("metric", ["wall_s", "sim_ns_per_wall_s"])
def test_gate_fails_on_a_median_three_times_better_in_the_record(tmp_path, capsys,
                                                                 metric):
    """The record standing in as the base (a benchmark change)."""
    record = _three_times_better(_smoke_doc(), metric)
    assert _gate(tmp_path, record, _smoke_doc()) == 1
    assert f"idle_poll: {metric} median" in capsys.readouterr().out


@pytest.mark.parametrize("metric", ["wall_s", "sim_ns_per_wall_s"])
def test_gate_fails_on_a_base_three_times_faster(tmp_path, capsys, metric):
    base = _three_times_better(_smoke_doc(), metric)
    assert _gate(tmp_path, _smoke_doc(), _smoke_doc(), base) == 1
    out = capsys.readouterr().out
    assert f"idle_poll: {metric} median" in out and "vs base" in out


@pytest.mark.parametrize("over, code", [(1.04, 0), (1.06, 1)])
def test_gate_holds_peak_rss_to_a_twentieth_over_the_base(tmp_path, capsys, over, code):
    """Timed metrics get 2x; one run's peak RSS varies by under 1%, so a
    memory regression of 6% fails where a timed one of 12% passes."""
    run = _smoke_doc()
    run["workloads"][0]["summary"]["peak_rss_mb"]["median"] *= over
    run["workloads"][0]["summary"]["wall_s"]["median"] *= 1.12
    assert _gate(tmp_path, _smoke_doc(), run, _smoke_doc()) == code
    out = capsys.readouterr().out
    if code:
        (line,) = out.splitlines()
        assert line.startswith("GATE FAILED: idle_poll: peak_rss_mb median ")
        assert line.endswith("is 1.06x worse (limit 1.05x)")
    else:
        assert "gate ok: 2 workloads" in out


def test_gate_ignores_the_records_wall_times(tmp_path, capsys):
    """Against a separate base, the record's wall times (another host's)
    are never compared, while its simulated metrics still are."""
    record = _smoke_doc()
    for metric in ("wall_s", "sim_ns_per_wall_s", "setup_s", "cpu_s"):
        _three_times_better(record, metric)
    assert _gate(tmp_path, record, _smoke_doc(), _smoke_doc()) == 0
    assert "gate ok: 2 workloads" in capsys.readouterr().out
    record["workloads"][1]["layers"]["sim.events_executed"] -= 1
    assert _gate(tmp_path, record, _smoke_doc(), _smoke_doc()) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("GATE FAILED: cluster_rpc: sim.events_executed ")


def test_gate_fails_on_a_missing_workload_or_another_size(tmp_path, capsys):
    run = _smoke_doc()
    run["workloads"][0]["size"] = "full"
    del run["workloads"][1]
    assert _gate(tmp_path, _smoke_doc(), run) == 1
    out = capsys.readouterr().out
    assert "cluster_rpc: missing from" in out and "idle_poll: not two traced runs" in out


# ----------------------------------------------------------------------
# real runs, in a clone
# ----------------------------------------------------------------------
def _has_git_checkout() -> bool:
    try:
        subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                       capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


needs_git = pytest.mark.skipif(not _has_git_checkout(),
                               reason="needs git and a git checkout of the repository")


def _clone(dest):
    subprocess.run(["git", "clone", "-q", ROOT, str(dest)], check=True,
                   capture_output=True)
    shutil.copy(AB, dest / "tools" / "ab.py")
    return dest


@pytest.fixture
def clone(tmp_path):
    return _clone(tmp_path / "clone")


def _worktrees(repo) -> str:
    return subprocess.run(["git", "-C", str(repo), "worktree", "list", "--porcelain"],
                          check=True, capture_output=True, text=True).stdout


def _run_ab(clone, *args, env=None):
    return subprocess.run([sys.executable, str(clone / "tools" / "ab.py"), *args],
                          capture_output=True, text=True, timeout=600, env=env)


@pytest.fixture(scope="module")
def head_run(tmp_path_factory):
    """One smoke pair of ``idle_poll`` against HEAD in a clone, with the
    temporary directory that holds both sides' trees under the test's
    control: ``(clone, that directory, worktrees before, the process)``."""
    base = tmp_path_factory.mktemp("ab")
    clone = _clone(base / "clone")
    scratch = base / "tmp"
    scratch.mkdir()
    before = _worktrees(clone), _worktrees(ROOT)
    env = {**os.environ, "TMPDIR": str(scratch)}
    # ab.py must set it for its runs itself, whatever the caller has
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = _run_ab(clone, "HEAD", "--smoke", "--pairs", "1", "--workload", "idle_poll",
                   env=env)
    return clone, scratch, before, proc


@needs_git
def test_ab_against_head_runs_one_pair_and_removes_its_worktree(head_run):
    clone, _, before, proc = head_run
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    results = doc["workloads"]["idle_poll"]
    assert list(results) == [m["name"] for m in CONTRACT["end_to_end"]]
    assert {(r["pairs"], r["verdict"]) for r in results.values()} == {(1, "unresolved")}
    assert (_worktrees(clone), _worktrees(ROOT)) == before


@needs_git
def test_ab_runs_without_bytecode_and_removes_its_copy(head_run):
    """Both sides run with ``PYTHONDONTWRITEBYTECODE=1``, the working
    tree's side from a copy: no run leaves a ``__pycache__`` in the
    checkout, and the copy and the REF worktree are gone after the run."""
    clone, scratch, _, proc = head_run
    assert proc.returncode == 0, proc.stderr
    assert sorted(clone.glob("src/**/__pycache__")) == []
    assert sorted(clone.glob("benchmark/**/__pycache__")) == []
    assert sorted(scratch.iterdir()) == []


@needs_git
@pytest.mark.parametrize("path", ["benchmark/README.md", "BENCHMARK.json",
                                  "benchmark/extra.py"])
def test_ab_refuses_when_the_benchmark_differs(clone, path):
    with open(clone / path, "a") as fh:
        fh.write("\n")
    before = _worktrees(clone)
    proc = _run_ab(clone, "HEAD", "--smoke", "--pairs", "1")
    assert proc.returncode == 2
    assert "refusing" in proc.stderr and path in proc.stderr
    assert proc.stdout == ""
    assert _worktrees(clone) == before
