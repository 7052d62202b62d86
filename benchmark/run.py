"""Repository benchmark: host time of the simulator on four workloads.

    python3 benchmark/run.py [--workload NAME]... [--seed N]
                             [--reps N | --seconds S] [--trace [0|1]]
                             [--smoke] [--json-out PATH]

Each repetition runs in a fresh interpreter (``rep.py``), one at a time,
so set-up includes the imports every user command pays.  The end-to-end
metrics (names, units, directions and regression bounds in
``BENCHMARK.json``) are reported per workload as the median, quartiles
and maximum over the repetitions.  ``--trace`` adds one profiled
repetition per workload and reports the per-layer metrics instead.

Correctness is checked, not measured: every operation must complete,
every repetition (traced included) must produce the same digest of the
simulated outcome, and on the default seed that digest must equal the
one recorded in ``reference.json``.  The last line of standard output is
one JSON object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 7
DEFAULT_REPS = 5
#: repetitions a ``--seconds`` budget always runs, however slow the host
MIN_REPS = 3
#: a repetition taking longer than this is killed and fails the run
REP_TIMEOUT_S = 120.0


def run_rep(workload: str, seed: int, size: str, *, trace: bool = False,
            deadline_ns=None) -> dict:
    """One repetition; returns the child's report plus host timings."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if trace:
        cmd.append("--trace")
    if deadline_ns is not None:
        cmd += ["--deadline-ns", str(deadline_ns)]
    # the package's process-wide switches would silently change what is
    # measured: every repetition runs the defaults
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{workload} repetition exited {proc.returncode}"}
    rep = json.loads(lines[-1])
    rep["setup_s"] = rep["t_setup"] - t_spawn
    rep["run_s"] = rep["t_run"] - rep["t_setup"]
    rep["wall_s"] = t_exit - t_spawn
    # user + system time of the child and every process it reaped (shards)
    rep["cpu_s"] = usage.ru_utime + usage.ru_stime
    rep["peak_rss_mb"] = rep["rss_kb"] / 1024.0
    rep["sim_ns_per_wall_s"] = rep["virtual_ns"] / rep["run_s"]
    return rep


def summarize(values: list) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "max": max(values), "n": len(values)}


def measure(workload: str, root_seed: int, args, contract: dict, reference: dict) -> dict:
    """All repetitions of one workload, checked and summarized."""
    from repro.par import derive_seed

    seed = derive_seed(root_seed, workload)
    size = "smoke" if args.smoke else "full"
    reps, problems = [], []
    start = time.monotonic()

    def more() -> bool:
        n = len(reps)
        if args.seconds is None:
            return n < (args.reps or DEFAULT_REPS)
        if n < (1 if args.trace else MIN_REPS):
            return True
        # a traced run leaves half its budget to the profiled repetition
        budget = args.seconds / 2 if args.trace else args.seconds
        mean_wall = sum(r["wall_s"] for r in reps) / n
        return time.monotonic() - start + mean_wall <= budget

    while more():
        rep = run_rep(workload, seed, size, deadline_ns=args.deadline_ns)
        if "error" in rep:
            problems.append(rep["error"])
            break
        reps.append(rep)
    traced = None
    if args.trace and not problems:
        traced = run_rep(workload, seed, size, trace=True, deadline_ns=args.deadline_ns)
        if "error" in traced:
            problems.append(traced["error"])
            traced = None

    everything = reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["attempted"] - r["completed"] for r in everything)
    for r in everything:
        problems.extend(r["problems"])
    if failed:
        problems.append(f"{failed} of {attempted} operations did not complete")
    digests = sorted({r["digest"] for r in everything})
    if len(digests) > 1:
        problems.append(f"repetitions disagree on the digest: {digests}")
    if traced:
        for key in ("sim.events_executed", "sim.events_replayed"):
            if any(r["layers"][key] != traced["layers"][key] for r in reps):
                problems.append(f"traced {key} differs from the untraced runs")
    expected = reference[size].get(workload)
    if root_seed == reference["seed"] and args.deadline_ns is None and digests != [expected]:
        problems.append(f"digest {digests} != reference {expected}")

    if not attempted:
        # no repetition reported back: count the workload as one failed operation
        attempted = failed = 1
    result = {
        "workload": workload, "seed": root_seed, "derived_seed": seed, "size": size,
        "reps": len(reps), "attempted": attempted, "failed": failed,
        "digest": digests[0] if len(digests) == 1 else None,
        "virtual_ns": reps[0]["virtual_ns"] if reps else None,
        "problems": problems,
    }
    if reps:
        names = [m["name"] for m in contract["end_to_end"]]
        result["samples"] = {k: [r[k] for r in reps] for k in names}
        result["summary"] = {k: summarize(v) for k, v in result["samples"].items()}
    if traced:
        run_s = statistics.median(r["run_s"] for r in reps)
        layers = dict(traced["layers"])
        layers["trace.overhead"] = traced["run_s"] / run_s
        layers["sim.executed_events_per_s"] = layers["sim.events_executed"] / run_s
        result["layers"] = layers
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict, contract: dict, trace: bool) -> None:
    """Human-readable block: every metric by name with its unit."""
    r = result
    print(f"== {r['workload']}  seed {r['seed']} -> {r['derived_seed']}  "
          f"size {r['size']}  {r['reps']} repetitions  digest {r['digest']}")
    if trace and "layers" in r:
        for m in contract["per_layer"]:
            print(f"  {m['name']:<36} {m['unit']:<14} {_fmt(r['layers'][m['name']]):>14}")
    elif "summary" in r:
        print(f"  {'metric':<20} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'max':>12}")
        for m in contract["end_to_end"]:
            s = r["summary"][m["name"]]
            print(f"  {m['name']:<20} {m['unit']:<6} " + " ".join(
                f"{_fmt(s[k]):>12}" for k in ("median", "q1", "q3", "max")))
        print(f"n={r['reps']}: too few samples for a tail percentile with 10 "
              "beyond it, so the maximum is shown instead")
    print(f"operations: {r['attempted']} attempted, {r['failed']} failed "
          f"(ops_failed_frac {r['failed'] / r['attempted']:.6g}); "
          f"virtual_ns {r['virtual_ns']} (checked through the digest)")
    for p in r["problems"]:
        print(f"FAILED: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Host-time benchmark of the simulator (see benchmark/README.md).")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeatable; default: all four)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"root seed; each workload derives its own (default {DEFAULT_SEED})")
    budget = ap.add_mutually_exclusive_group()
    budget.add_argument("--reps", type=int, help=f"repetitions per workload (default {DEFAULT_REPS})")
    budget.add_argument("--seconds", type=float,
                        help="measure each workload for about this long "
                        f"(at least {MIN_REPS} repetitions)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="add one profiled repetition and report per-layer metrics")
    ap.add_argument("--smoke", action="store_true", help="small sizes, for tests and CI")
    ap.add_argument("--json-out", metavar="PATH", help="write every sample and summary here")
    ap.add_argument("--deadline-ns", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        ap.error("--reps must be at least 1")

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no package source at {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)

    workloads = args.workload or list(WORKLOADS)
    results = []
    for workload in workloads:
        result = measure(workload, args.seed, args, contract, reference)
        report(result, contract, bool(args.trace))
        results.append(result)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for m in contract[kind]:
            if args.trace:
                value = r.get("layers", {}).get(m["name"])
            else:
                value = r.get("summary", {}).get(m["name"], {}).get("median")
            if value is not None:
                metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    correct = all(not r["problems"] for r in results)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({
                "meta": {
                    "argv": sys.argv[1:] if argv is None else list(argv),
                    "python": platform.python_version(),
                    "platform": platform.platform(),
                    "host_cpus": len(os.sched_getaffinity(0)),
                },
                "correct": correct,
                "workloads": results,
            }, fh, indent=1)
            fh.write("\n")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
