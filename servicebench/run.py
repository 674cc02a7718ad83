#!/usr/bin/env python3
"""Build and run the service benchmark.

    python3 servicebench/run.py --workload kv-large --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds servicebench/ (a CMake package of its
own, compiled against the header-only src/ tree) into $CARGO_TARGET_DIR or
.bench_build, runs the checkers' self-test, then runs one workload.  The
workload's output is passed through; its last line is the JSON result.
Logs, write-ahead logs and traces go to .bench_out/.

Exits non-zero, without a result line, when the sources are missing, the
build or the self-test fails, or the workload fails or times out.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kv-large", "swap-hot-wal", "net-readmostly")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"servicebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "service", "service.h")):
        fail("src/service/service.h not found; run from the repository root")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", build_dir, "-j", "2"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "servicebench")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "servicebench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        fail("checker self-test failed")

    # The service reads OTB_* tuning knobs from the environment; every run
    # uses the built-in defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("OTB_")}
    cmd = [os.path.join(build_dir, "servicebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", ".bench_out"]
    try:
        r = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
