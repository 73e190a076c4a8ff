#!/usr/bin/env python3
"""Check the benchmark ledger: every committed BENCH_*.json entry.

    python3 tools/check_bench.py [FILE ...]

With no arguments, checks every BENCH_*.json that git tracks at the
repository root, or, outside a git checkout (an exported tree), every
BENCH_*.json in the current directory. An entry must record the core
count (`nproc`), the number of pairs (`pairs`), the seed range
(`seeds`, first and last), and for every workload and metric the
parent's and the change's median. Prints one line per problem and exits 1 if there is any;
stdlib only. Run from the repository root.
"""
import glob
import json
import numbers
import subprocess
import sys


def is_number(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def problems(path):
    try:
        with open(path) as f:
            entry = json.load(f)
    except (OSError, ValueError) as e:
        return [f"unreadable: {e}"]
    if not isinstance(entry, dict):
        return ["not a JSON object"]
    found = []
    for key in ("nproc", "pairs"):
        if not (isinstance(entry.get(key), int) and entry[key] > 0):
            found.append(f"{key} missing or not a positive integer")
    seeds = entry.get("seeds")
    if not (isinstance(seeds, list) and len(seeds) == 2 and all(isinstance(s, int) for s in seeds)):
        found.append("seeds missing or not [first, last]")
    workloads = entry.get("workloads")
    if not (isinstance(workloads, dict) and workloads):
        return found + ["no workloads"]
    for workload, w in workloads.items():
        metrics = w.get("metrics") if isinstance(w, dict) else None
        if not (isinstance(metrics, dict) and metrics):
            found.append(f"{workload}: no metrics")
            continue
        for name, m in metrics.items():
            for side in ("parent", "change"):
                spread = m.get(side) if isinstance(m, dict) else None
                if not (isinstance(spread, dict) and is_number(spread.get("median"))):
                    found.append(f"{workload} {name}: {side} median missing")
    return found


def ledger_paths():
    try:
        tracked = subprocess.run(["git", "ls-files", "BENCH_*.json"], check=True,
                                 capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return sorted(glob.glob("BENCH_*.json"))
    return [p for p in tracked.split("\n") if p]


def main():
    paths = sys.argv[1:] or ledger_paths()
    if not paths:
        sys.exit("no BENCH_*.json entries")
    bad = 0
    for path in paths:
        for p in problems(path):
            print(f"{path}: {p}")
            bad += 1
    if bad:
        sys.exit(1)
    print(f"{len(paths)} ledger entries complete")


if __name__ == "__main__":
    main()
