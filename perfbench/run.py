#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep|lattice_stream|service_replay \
        --seed N --seconds S --trace 0|1 [--dump FILE] [--replay FILE]

The first call builds the tqan library and perfbench (Release) under
.bench_build/perfbench; later calls only re-check the build.  Build
output goes to stderr, so the last stdout line is perfbench's result
object.  The exit status is perfbench's, or 1 when the build fails or
perfbench overruns its time limit.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TIMEOUT_S = 170


def build():
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + \
        ["--workdir", workdir]
    try:
        return subprocess.run(cmd, cwd=ROOT,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: exceeded %d s" % TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
