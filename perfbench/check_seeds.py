#!/usr/bin/env python3
"""Seed plumbing check for one workload.

One seed must repeat the deterministic outputs (flight_m, tput_mbps,
min_tput_mbps, served_mbps and the decision digest) exactly: over the
untraced passes of one run, in a second run, and in a traced pass.  A
held-out seed must change every one of them that is nonzero (the worst
UE of a campus often gets 0 Mb/s under any seed).

    python3 perfbench/check_seeds.py --workload fleet_campus --seed 1 --other-seed 7919
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import DEADLINE_S, HERE, WORKLOADS, run_worker  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=7919)
    args = parser.parse_args(argv)
    if args.other_seed == args.seed:
        parser.error("--other-seed must differ from --seed")

    spans_out = HERE / "out" / f"spans-{args.workload}-{args.seed}.json"
    runs = {
        "first": run_worker(args.workload, args.seed, False, DEADLINE_S),
        "traced": run_worker(args.workload, args.seed, True, DEADLINE_S, spans_out),
        "other seed": run_worker(args.workload, args.other_seed, False, DEADLINE_S),
    }
    for label, rec in runs.items():
        for i, run in enumerate(rec["passes"]):
            kind = "traced" if run["traced"] else "untraced"
            print(f"{label:<11} seed={rec['seed']:<6} pass {i} {kind:<8} {run['outcome']}")
    base = runs["first"]["passes"][0]["outcome"]
    same_seed = runs["first"]["passes"] + runs["traced"]["passes"]
    repeats = all(run["outcome"] == base for run in same_seed)
    other = runs["other seed"]["passes"][0]["outcome"]
    changed = all(other.get(k) != v for k, v in base.items() if v)
    print(f"same seed repeats exactly over {len(same_seed)} passes, untraced and traced: {repeats}")
    print(f"held-out seed changes every nonzero deterministic output: {changed}")
    return 0 if repeats and changed else 1

if __name__ == "__main__":
    raise SystemExit(main())
