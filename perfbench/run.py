#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload server|data|campaign|fuzz \
        --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout. The simulator and the benchmark
program are built from source into .bench_build/ (the first run
configures and compiles; later runs only check that the build is up
to date). Each run gets a fresh work directory under .bench_build/,
removed afterwards. Build output goes to stderr; the program's last
stdout line is the result object. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
WORKLOADS = ("server", "data", "campaign", "fuzz")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no simulator sources in %s" % ROOT)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))
    return BUILD_DIR / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="short simulations and small job sets")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    BUILD_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.quick:
        cmd.append("--quick")
    try:
        code = subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
