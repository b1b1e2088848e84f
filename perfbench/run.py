#!/usr/bin/env python3
"""Builds and runs the S/C refresh benchmark from the root of a checkout.

    python3 perfbench/run.py --workload paper_refresh --seed 1 \
        --seconds 25 --trace 0

The library and the benchmark program are compiled from source (optimized) into the
directory named by CARGO_TARGET_DIR, or `.bench_build` when it is unset.
The run's warehouse lives in `.bench_run/<pid>` and is removed at exit.
Build output goes to stderr; stdout is the program's, whose last line is
the JSON result. Exits non-zero, printing no result, when the library
sources are missing or the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_refresh", "compute_heavy", "tenant_mix")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "sc.h")):
        sys.exit("run.py: library sources (src/) not found in the checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "refresh_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"run.py: build failed: {err}")

    run_dir = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    try:
        proc = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", run_dir],
            timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))  # only if now empty
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
