"""Paired A/B of the repo benchmark against a git ref, and CI's wall gate.

Run:  python3 tools/ab.py REF [--workload W]... [--pairs N] [--smoke] [--seed N]
      python3 tools/ab.py --gate RECORD RUN BASE

A/B mode checks REF out into a throwaway ``git worktree`` (local, no
network) and copies the working tree's ``src/``, ``benchmark/`` and
``BENCHMARK.json`` without their ``__pycache__`` into a temporary
directory; both are removed on exit.  It alternates ``benchmark/run.py
--workload W --reps 1`` between the two, ``--pairs`` times per workload
(default 10), swapping which side goes first every pair.  Every run has
``PYTHONDONTWRITEBYTECODE=1`` in its environment, so both sides import
and compile every module in every repetition, as a fresh checkout does,
and neither writes a cache that a later run, or the other side, reads.
Every run checks its digests against ``benchmark/reference.json`` and
counts failed operations; any non-zero exit stops the comparison (exit
1).  It refuses to start (exit 2) when ``benchmark/`` or
``BENCHMARK.json`` differ between the two trees: the two sides would
not measure the same thing.

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median [q1, q3], the median of the per-pair ratios (working
tree over REF), the pairs the working tree won in the metric's better
direction (ties count for neither side) and one verdict:

* ``gain``: at least nine tenths of the pairs won, and the medians
  further apart than REF's interquartile range;
* ``worse``: the working tree's median worse than REF's by more than the
  metric's bound;
* ``unresolved``: REF's interquartile range wider than the bound, or
  fewer than 5 pairs, where even winning every pair is no evidence (a
  one-sided sign test needs 5 of 5 to reach p < 0.05);
* ``parity``: none of these.

The exit code does not depend on the verdicts.  The last line of
standard output is one JSON object.

Gate mode checks RUN, written by ``benchmark/run.py --smoke --trace
--json-out RUN``, against two documents written by the same command.
RECORD is the committed one (``BENCH_smoke.json``): every per-layer
metric of RUN that is a function of the simulated run (all but host
self times, time shares and the traced run's host timings) must equal
RECORD's exactly.  BASE is the parent commit's run on the same host:
every end-to-end median of RUN must be within a factor of 2 of BASE's in
the metric's worse direction, ``peak_rss_mb`` within a factor of 1.05,
the regression bound ``BENCHMARK.json`` gives it (one run's peak RSS
varies by under 1% on a runner, its wall times by far more).  Wall times recorded on another host say nothing about this one,
so RECORD's are never compared; a change to the benchmark itself, which
cannot be timed against its parent, passes RECORD as BASE.  Any failed
check exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: what must be identical in both trees for the comparison to mean anything
SAME = ("benchmark", "BENCHMARK.json")
#: what of the working tree a benchmark run reads
RUN_FROM = ("src",) + SAME
#: every run's environment: no side reads or writes compiled bytecode
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
#: fewest pairs for which winning all of them is evidence
MIN_PAIRS = 5
#: share of pairs a gain must win
GAIN_WINS = 0.9
#: the gate's tolerance on an end-to-end median, in its worse direction
GATE_FACTOR = 2.0
#: tighter tolerances for the metrics a runner's load hardly moves
GATE_FACTORS = {"peak_rss_mb": 1.05}
#: per-layer metrics timed on the host (besides ``*.self_s`` and ``*.share``)
HOST_TIMED = {
    "trace.overhead", "sim.executed_events_per_s", "cluster.shard.compute_share",
    "cluster.shard.barrier_wait_share", "cluster.shard.imbalance",
}


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def simulated(name: str) -> bool:
    """Whether a per-layer metric is a function of the simulated run."""
    return not name.endswith((".self_s", ".share")) and name not in HOST_TIMED


def quartiles(values: list) -> tuple:
    """(median, q1, q3), computed the way ``benchmark/run.py`` does."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
        return median, q1, q3
    return values[0], values[0], values[0]


def verdict(metric: dict, ref: list, new: list) -> dict:
    """Paired samples of one end-to-end metric (``new``: the working tree)."""
    higher = metric["better"] == "higher"
    wins = sum((b > a) if higher else (b < a) for a, b in zip(ref, new))
    ref_q, new_q = quartiles(ref), quartiles(new)
    # how much better the working tree's median is, in the metric's units
    gap = new_q[0] - ref_q[0] if higher else ref_q[0] - new_q[0]
    iqr = ref_q[2] - ref_q[1]
    bound = metric["bound"] * abs(ref_q[0])
    n = len(ref)
    if n < MIN_PAIRS:
        call = "unresolved"
    elif wins >= GAIN_WINS * n and gap > iqr:
        call = "gain"
    elif -gap > bound:
        call = "worse"
    elif iqr > bound:
        call = "unresolved"
    else:
        call = "parity"
    ratios = [b / a for a, b in zip(ref, new) if a]
    return {
        "ref": list(ref_q), "new": list(new_q),
        "ratio": statistics.median(ratios) if ratios else None,
        "wins": wins, "pairs": n, "verdict": call,
    }


def run_side(tree: str, workload: str, args) -> dict:
    """One ``benchmark/run.py --reps 1`` in ``tree``; its summary line,
    or None after printing why it failed."""
    cmd = [sys.executable, os.path.join(tree, "benchmark", "run.py"),
           "--workload", workload, "--reps", "1"]
    if args.smoke:
        cmd.append("--smoke")
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=tree, env=ENV, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"ab: {' '.join(cmd[1:])} (in {tree}) exited {proc.returncode}:",
              file=sys.stderr)
        print(proc.stdout + proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(q: list) -> str:
    return f"{q[0]:.4g} [{q[1]:.4g}, {q[2]:.4g}]"


def ab(args, contract: dict) -> int:
    try:
        sha = git("rev-parse", "--verify", f"{args.ref}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"ab: {args.ref!r} is not a commit of this repository", file=sys.stderr)
        return 2
    differ = sorted(set(
        git("diff", "--name-only", sha, "--", *SAME).splitlines()
        + git("ls-files", "--others", "--exclude-standard", "--", *SAME).splitlines()
    ))
    if differ:
        print(f"ab: refusing to compare: {', '.join(differ)} differ between "
              f"{args.ref} and the working tree, so the two sides would not run "
              "the same benchmark", file=sys.stderr)
        return 2
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    tmp = tempfile.mkdtemp(prefix="ab-")
    trees = {"ref": os.path.join(tmp, "ref"), "new": os.path.join(tmp, "new")}
    results: dict = {}
    try:
        git("worktree", "add", "--detach", "--quiet", trees["ref"], sha)
        no_cache = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in RUN_FROM:
            src, dest = os.path.join(ROOT, name), os.path.join(trees["new"], name)
            if os.path.isdir(src):
                shutil.copytree(src, dest, ignore=no_cache)
            else:
                shutil.copy2(src, dest)
        for workload in workloads:
            samples = {"ref": [], "new": []}
            for i in range(args.pairs):
                order = ("ref", "new") if i % 2 == 0 else ("new", "ref")
                for side in order:
                    out = run_side(trees[side], workload, args)
                    if out is None:
                        return 1
                    samples[side].append(out["metrics"])
                print(f"ab: {workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
            results[workload] = {
                m["name"]: verdict(m, [s[m["name"]]["value"] for s in samples["ref"]],
                                   [s[m["name"]]["value"] for s in samples["new"]])
                for m in contract["end_to_end"]
            }
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", trees["ref"]], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)

    size = "smoke" if args.smoke else "full"
    for workload, metrics in results.items():
        print(f"== {workload} ({size}): working tree vs {args.ref} ({sha[:10]}), "
              f"{args.pairs} pairs")
        print(f"  {'metric':<18} {'REF median [q1, q3]':>32} "
              f"{'tree median [q1, q3]':>32} {'ratio':>7} {'wins':>6}  verdict")
        for name, r in metrics.items():
            ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.3f}"
            print(f"  {name:<18} {_fmt(r['ref']):>32} {_fmt(r['new']):>32} "
                  f"{ratio:>7} {r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}")
    print(json.dumps({"ref": args.ref, "sha": sha, "size": size, "seed": args.seed,
                      "pairs": args.pairs, "workloads": results}))
    return 0


def gate(record_path: str, run_path: str, base_path: str, contract: dict) -> int:
    rec, new, base = ({w["workload"]: w for w in load_json(path)["workloads"]}
                      for path in (record_path, run_path, base_path))
    failures = [f"{w}: missing from {run_path}" for w in rec if w not in new]
    for path, other in ((record_path, rec), (base_path, base)):
        failures += [f"{w}: missing from {path}" for w in new if w not in other]
    exact = [m["name"] for m in contract["per_layer"] if simulated(m["name"])]
    checked = 0
    for workload in [w for w in new if w in rec and w in base]:
        a, b, c = rec[workload], new[workload], base[workload]
        mismatched = [f"{workload}: not two traced runs of one size ({b['size']} "
                      f"vs {d['size']} in {path})"
                      for path, d in ((record_path, a), (base_path, c))
                      if d["size"] != b["size"] or "layers" not in d or "layers" not in b]
        if mismatched:
            failures += mismatched
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            rc, rb = c["summary"][name]["median"], b["summary"][name]["median"]
            worse = rb / rc if metric["better"] == "lower" else rc / rb
            limit = GATE_FACTORS.get(name, GATE_FACTOR)
            if worse > limit:
                failures.append(f"{workload}: {name} median {rb:.4g} vs base "
                                f"{rc:.4g} is {worse:.2f}x worse (limit {limit}x)")
        for name in exact:
            if a["layers"][name] != b["layers"][name]:
                failures.append(f"{workload}: {name} {b['layers'][name]!r} != recorded "
                                f"{a['layers'][name]!r}")
        checked += 1
    for f in failures:
        print(f"GATE FAILED: {f}")
    if failures:
        return 1
    limits = ", ".join(f"{name} {f}x" for name, f in GATE_FACTORS.items())
    print(f"gate ok: {checked} workloads, end-to-end medians within "
          f"{GATE_FACTOR}x ({limits}) of {base_path}, {len(exact)} simulated "
          f"per-layer metrics equal to {record_path}")
    return 0


def main(argv=None) -> int:
    contract = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ap = argparse.ArgumentParser(
        description="Paired A/B of benchmark/run.py between a git ref and the "
        "working tree, or (--gate) CI's wall gate against the parent's run.")
    ap.add_argument("ref", nargs="?", metavar="REF",
                    help="git ref to compare the working tree against")
    ap.add_argument("--gate", nargs=3, metavar=("RECORD", "RUN", "BASE"),
                    help="check a smoke --trace run's simulated metrics against a "
                    "committed record and its wall times against a base run")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in contract["workloads"]],
                    help="workload to compare (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternating pairs per workload (default 10)")
    ap.add_argument("--smoke", action="store_true", help="the benchmark's small sizes")
    ap.add_argument("--seed", type=int, default=None,
                    help="root seed passed to benchmark/run.py (default: its own)")
    args = ap.parse_args(argv)
    if (args.ref is None) == (args.gate is None):
        ap.error("give either REF or --gate RECORD RUN BASE")
    if args.gate:
        return gate(*args.gate, contract)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return ab(args, contract)


if __name__ == "__main__":
    sys.exit(main())
