#!/usr/bin/env python3
"""Build the layer benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --digest
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds
perfbench/ (the repository's libraries plus the perfbench binary,
Release) under .bench_build/perfbench; later calls only rebuild what
changed.  Build output goes to standard error, so the last line of
standard output is the binary's JSON result.  Exits non-zero, printing no result, when the
build fails (for instance when the program's sources are missing).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_DIR = ".bench_run"


def build():
    """Configure (once) and build; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 1
    args = [BINARY] + argv
    if "--self-test" not in argv:
        args += ["--run-dir", RUN_DIR]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
