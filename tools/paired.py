#!/usr/bin/env python3
"""Paired benchmark sitting: the parent against the change, alternating.

    python3 tools/paired.py --out BENCH_<n>.json [--parent REV]
        [--change REV] [--pairs 10] [--seed 28000] [--trace 0|1]
        [--workload NAME ...] [--work DIR]

Exports the parent (default HEAD) and the change (default the working
tree: tracked and untracked files that git does not ignore) into two
fresh checkouts under --work, builds each once, then runs the
unmodified `python3 perfbench/run.py` in them: per workload, --pairs
pairs on seeds --seed, --seed + 1, ..., each pair running both sides
on the same seed, the parent first in even pairs and the change first
in odd ones. Run length is BENCHMARK.json's run_seconds.

Writes per metric and side the median and quartiles, and the change's
wins, losses and ties against the parent, judged by the metric's
`better` direction in BENCHMARK.json; plus `nproc` and the host's steal
ticks (the `steal` column of /proc/stat's `cpu` line) over each run.
With --trace 1 the runs are traced and the metrics are the per-layer
ones. Run from the repository root; stdlib only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

SPEC = json.load(open("BENCHMARK.json"))


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def export(rev, dest):
    """Check out [rev] (a commit, or None for the working tree) into dest."""
    os.makedirs(dest)
    if rev is None:
        for path in git("ls-files", "-z", "--cached", "--others",
                        "--exclude-standard").decode().split("\0"):
            if path and os.path.isfile(path):
                os.makedirs(os.path.join(dest, os.path.dirname(path)), exist_ok=True)
                with open(path, "rb") as src, open(os.path.join(dest, path), "wb") as dst:
                    dst.write(src.read())
                os.chmod(os.path.join(dest, path), os.stat(path).st_mode)
    else:
        subprocess.run(f"git archive {rev} | tar -x -C {dest}", shell=True, check=True)
    subprocess.run(["dune", "build", "--root", ".", "./perfbench/perf.exe", "./bin/mgq.exe"],
                   cwd=dest, check=True, env=dict(os.environ, DUNE_CACHE="disabled"))


def steal_ticks():
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def run(checkout, workload, seed, trace):
    """One perfbench run; its JSON result and the steal ticks it saw."""
    steal = steal_ticks()
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"{checkout}: {workload} seed {seed} printed no result\n{out.stderr[-2000:]}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "steal_ticks": steal_ticks() - steal,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs, spec):
    metrics = {}
    for m in spec:
        name, lower = m["name"], m.get("better") == "lower"
        par = [r["parent"]["metrics"][name] for r in runs]
        chg = [r["change"]["metrics"][name] for r in runs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        losses = sum((c > p) if lower else (c < p) for p, c in zip(par, chg))
        p, c = spread(par), spread(chg)
        metrics[name] = {
            "unit": m["unit"], "better": m.get("better"),
            "parent": p, "change": c,
            "delta": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
            "wins": wins, "losses": losses, "ties": len(runs) - wins - losses,
            # The gain rule: the medians differ by more than the
            # parent's interquartile range.
            "beyond_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
        }
    return metrics


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--change", default=None, help="a commit; default the working tree")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=28000)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--work", default=None, help="scratch directory for the checkouts")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    spec = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    work = args.work or tempfile.mkdtemp(prefix="paired-")
    sides = {"parent": os.path.join(work, "parent"), "change": os.path.join(work, "change")}
    export(args.parent, sides["parent"])
    export(args.change, sides["change"])
    steal0 = steal_ticks()
    report = {
        "parent": git("rev-parse", args.parent).decode().strip(),
        "change": git("rev-parse", args.change).decode().strip() if args.change else "working tree",
        "nproc": os.cpu_count(), "run_seconds": SPEC["run_seconds"], "trace": args.trace,
        "pairs": args.pairs, "seeds": [args.seed, args.seed + args.pairs - 1],
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(sides[side], workload, seed, args.trace)
            runs.append(pair)
            print(f"{workload} seed {seed} done", file=sys.stderr)
        report["workloads"][workload] = {"metrics": summarise(runs, spec), "runs": runs}
    report["steal_ticks"] = steal_ticks() - steal0
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    for workload, w in report["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:12} {name:30} {m['parent']['median']:>12.4g} -> "
                  f"{m['change']['median']:>12.4g}  wins {m['wins']}/{args.pairs}")


if __name__ == "__main__":
    main()
