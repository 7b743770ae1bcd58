#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the libraries and
the benchmark with dune (into _build/ of the checkout); later runs reuse
the build. The benchmark's own output, ending in one JSON line, goes to
stdout, and its exit code is passed through. A failed build exits
non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["sets-large", "deleg-hot", "serve", "fleet"]


def build():
    env = dict(os.environ)
    # keep every build artifact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/bench.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(proc.returncode or 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
        cmd += ["--spans", os.path.join("perfbench", "out", f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
