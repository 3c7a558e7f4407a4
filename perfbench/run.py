#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload fleet|surge|replan --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The driver (perfbench/cpp) is compiled together with the program's
libraries from src/ into .bench_build/perfbench, in Release mode, on
the first run; later runs only re-check the build. Build output goes to
stderr. The driver's stdout is passed through unchanged, so its last
line, the JSON result, is this script's last line. Exits non-zero
without a result when the build fails.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "flower_perfbench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "flower_perfbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
    return os.path.exists(BINARY)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    proc = subprocess.run([BINARY] + sys.argv[1:] + ["--out-dir", OUT])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
