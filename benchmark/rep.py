"""One benchmark repetition in a fresh interpreter (started by run.py).

Imports the package from this checkout's ``src/``, runs one workload
under a :class:`layers.Probe`, and prints one JSON line: the monotonic
instants at which set-up and the run phase ended (the parent compares
them with its own spawn instant), the outcome, its digest, and the
per-layer metrics.  Exits non-zero if the package cannot be imported
from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--deadline-ns", type=int, default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from layers import Probe, layer_metrics
    from workloads import RUNNERS

    with Probe(profile=args.trace) as probe:
        outcome = RUNNERS[args.workload](
            args.seed, args.size, probe, deadline_ns=args.deadline_ns
        )
    makespan = probe.makespan_ns()
    print(json.dumps({
        "t_setup": probe.t_setup,
        "t_run": probe.t_run,
        "attempted": outcome.attempted,
        "completed": outcome.completed,
        "problems": outcome.problems,
        "virtual_ns": makespan,
        "digest": outcome.digest,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + sum(outcome.shard_rss_kb),
        "layers": layer_metrics(outcome, probe, makespan, probe.t_run - probe.t_setup),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
