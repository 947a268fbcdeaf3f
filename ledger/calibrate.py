#!/usr/bin/env python3
"""Calibrate the ledger the way the driver judges it.

Runs the command of BENCHMARK.json from the root of the repository, a
set of RUNS runs per workload, each run on another seed, and prints for
every end-to-end metric the set's median and its spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median. With --sets 2 or more it also prints, per metric,
by how much each later set's median is worse than the first's (the A/A
difference), and the largest such difference over every ordered pair of
sets. Every set runs the same seeds. Raw values go to
ledger/out/calibration.json.

    python3 ledger/calibrate.py [--sets 2] [--runs 10] [--workload W] [--seed0 1]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(manifest, workload, seed):
    cmd = manifest["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]),
        "--trace", "0",
    ]
    t0 = time.time()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["_wall_s"] = time.time() - t0
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, later, better):
    """Share of `first` by which `later` is worse (negative: better)."""
    delta = (later - first) / first
    return delta if better == "lower" else -delta


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload")
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workload:
        workloads = [args.workload]
    metrics = manifest["end_to_end"]

    raw = {}
    for s in range(args.sets):
        for w in workloads:
            runs = [run_once(manifest, w, args.seed0 + i) for i in range(args.runs)]
            raw.setdefault(w, []).append(runs)
            wall = statistics.median(r["_wall_s"] for r in runs)
            print(f"set {s} {w}  ({args.runs} runs, median {wall:.1f} s each)", flush=True)
            for m in metrics:
                vals = [r[m["name"]] for r in runs]
                print(f"  {m['name']:<18} median {statistics.median(vals):>16.4f} {m['unit']:<5}"
                      f" spread {100 * spread(vals):6.2f} %  bound {100 * m['bound']:5.1f} %", flush=True)

    if args.sets > 1:
        print("A/A: later set's median worse than the first's by; largest over all ordered pairs")
        for w in workloads:
            for m in metrics:
                meds = [statistics.median(r[m["name"]] for r in runs) for runs in raw[w]]
                diffs = [100 * worse_by(meds[0], later, m["better"]) for later in meds[1:]]
                largest = max(100 * worse_by(a, b, m["better"]) for a in meds for b in meds)
                print(f"  {w:<20} {m['name']:<18} " + " ".join(f"{d:+6.2f} %" for d in diffs)
                      + f"   largest {largest:6.2f} %")

    os.makedirs("ledger/out", exist_ok=True)
    with open("ledger/out/calibration.json", "w") as f:
        json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
