#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: board_kernels, tls_bulk, tls_churn, plain_lossy (see NOTES.md).
The first run configures and builds the repository's libraries and the
perfbench program (Release) under .bench_build/perfbench at the repository
root; later runs rebuild only what changed. Build output goes to standard
error, so the program's JSON result stays the last line of standard output.
The exit status is the build's failure status or the program's own.
"""
import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.path.dirname(here), ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return done.returncode
    return subprocess.run([os.path.join(build, "perfbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
