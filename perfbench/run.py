#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Configures perfbench/ (a standalone CMake project over ../src) into
.bench_build/ in Release mode, builds pra_perfbench, and runs it. The
binary's last stdout line is the JSON result; see perfbench/README.md
for the workloads and metrics. Exits non-zero, printing no result,
when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("sweep_conv_b4", "sweep_propagated", "serve_ideal",
             "serve_faulted")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(deadline):
    steps = (
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "pra_perfbench",
         "-j", "4"],
    )
    # Compiler temporaries stay inside the build directory.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                       check=True, timeout=max(1, deadline - time.time()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0x5eed)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build(time.time() + BUILD_TIMEOUT_S)
        run = subprocess.run(
            [str(BUILD / "pra_perfbench"), f"--workload={args.workload}",
             f"--seed={args.seed}", f"--seconds={args.seconds}",
             f"--trace={args.trace}"],
            timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
