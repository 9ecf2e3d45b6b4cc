#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload matrix-cold|serve-hot|serve-miss \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds a
Release tree under .bench_build/perfbench (a few minutes); later runs only
check that it is up to date. Build output goes to stderr; the last stdout
line is the benchmark's JSON result. The exit code is the benchmark's: 0
only when every correctness check passed.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("matrix-cold", "serve-hot", "serve-miss")
RUN_TIMEOUT_S = 170


def build():
    # The Makefile appears only once configuring has succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j4"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Its own process group, so a hung run is stopped with every worker
    # process it forked.
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
