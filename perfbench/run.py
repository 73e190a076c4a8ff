#!/usr/bin/env python3
"""Run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `mgq` and the benchmark driver `perf` from source with dune
(build output goes to stderr), then replaces itself with `perf`, whose
last line of standard output is the JSON result. Scratch files live in
`.perfbench_tmp/` and are removed by `perf`; the traced run's spans go
to `.perfbench_out/`. Workloads: cypher-http, ingest-mix. The metric
names and units come from `BENCHMARK.json`.
"""

import argparse
import os
import subprocess
import sys

PERF = os.path.join("_build", "default", "perfbench", "perf.exe")
MGQ = os.path.join("_build", "default", "bin", "mgq.exe")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # No shared dune cache: the build stays inside the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perf.exe", "./bin/mgq.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)

    sys.stdout.flush()
    tmp = os.path.join(".perfbench_tmp", "%s-%d" % (args.workload, os.getpid()))
    os.execv(
        PERF,
        [
            PERF,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--spec", "BENCHMARK.json",
            "--mgq", MGQ,
            "--tmp", tmp,
            "--out", ".perfbench_out",
        ],
    )


if __name__ == "__main__":
    main()
