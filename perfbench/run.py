#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload design-drr --seed 1 --seconds 10 --trace 0

Every argument is passed to the perfbench binary.  The first run configures
and builds it (Release) under .bench_build/perfbench; later runs only
rebuild what changed.  Build output goes to stderr, so the binary's last
stdout line stays the result object.  The exit code is the binary's, or 2
when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = "perfbench"
BUILD = os.path.join(".bench_build", "perfbench")
WORK = os.path.join(".bench_build", "perfbench-work")
# A run measures at most 60 s plus set-up and checks; anything far beyond
# that is a hang, and the binary is stopped rather than left running.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    # Flush the build's output now, so its write-back does not land in the
    # first run's measurements.
    os.sync()
    return True


def main():
    os.chdir(ROOT)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), "--work-dir", WORK] + sys.argv[1:]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        proc.kill()
        proc.wait()
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
