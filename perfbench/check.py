#!/usr/bin/env python3
"""Check the benchmark's own steadiness and the repeatability of its counts.

Run from the repository root:

    python3 perfbench/check.py spread --workload table1 --runs 10
    python3 perfbench/check.py exact --seed 1

spread runs the benchmark once per seed (1..runs) and prints, for every
end-to-end metric, the median and the distance between the first and the
third quartile as a share of the median (statistics.quantiles, n=4),
next to the metric's bound from BENCHMARK.json.

exact makes two traced runs of every workload at one seed and compares
the per-layer metrics README.md marks as exact counts; they must match
bit for bit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["table1", "check-corpus", "shaped-mix"]

# The per-layer metrics that repeat exactly at one seed, per workload
# (README.md, "Exact counts"). Freeze, digest and intern tallies are
# left out: two workers may race to freeze the same graph.
ENGINE_COUNTS = [
    "analysis.visits",
    "analysis.requeue_ratio",
    "analysis.component_stabilizations",
    "analysis.widenings",
    "analysis.delta_transfers",
    "rsrsg.dirty_buckets",
    "rsrsg.dirty_buckets_per_visit",
    "analysis.peak_nodes",
    "analysis.peak_graphs",
]
EXACT = {
    "table1": ENGINE_COUNTS,
    "check-corpus": ENGINE_COUNTS + ["verdict.levels_per_task"],
    "shaped-mix": ["analysis.reused_statements", "analysis.reseeded_statements"],
}


def bench_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: {res['failed']} failed checks")
    return res["metrics"]


def spread(args):
    spec = bench_spec()
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name, m in run(args.workload, seed, seconds, 0).items():
            values.setdefault(name, []).append(m["value"])
    bad = False
    print(f"{args.workload}: {args.runs} runs of {seconds} s")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        rel = (q3 - q1) / med
        flag = "" if rel < m["bound"] / 3 else "  <-- above a third of the bound"
        bad = bad or (m["name"] != "setup_s" and rel > m["bound"])
        print(f"  {m['name']:16} median {med:12.5g} {m['unit']:8} spread {rel:7.2%}  bound {m['bound']:.0%}{flag}")
    return 1 if bad else 0


def exact(args):
    failed = 0
    for w in args.workloads or WORKLOADS:
        a = run(w, args.seed, args.seconds or bench_spec()["run_seconds"], 1)
        b = run(w, args.seed, args.seconds or bench_spec()["run_seconds"], 1)
        for name in EXACT[w]:
            same = a[name]["value"] == b[name]["value"]
            failed += not same
            print(f"{w:13} {name:40} {a[name]['value']!r:>22} {b[name]['value']!r:>22} {'same' if same else 'DIFFERENT'}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True, choices=WORKLOADS)
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    s.add_argument("--seconds", type=int, default=0)
    e = sub.add_parser("exact")
    e.add_argument("--seed", type=int, default=1)
    e.add_argument("--seconds", type=int, default=0)
    e.add_argument("--workloads", nargs="*", choices=WORKLOADS)
    args = ap.parse_args()
    return spread(args) if args.cmd == "spread" else exact(args)


if __name__ == "__main__":
    sys.exit(main())
