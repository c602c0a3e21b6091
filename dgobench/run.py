#!/usr/bin/env python3
"""Build the dgobench binary from source, then make one benchmark run.

Usage, from the root of the repository:

    python3 dgobench/run.py --workload onion --seed 1 --seconds 24 --trace 0

The binary is built with cargo into $CARGO_TARGET_DIR (default
.bench_build) and started in a fresh process with DGO_JOBS=1, so input
parsing, the CSR build and every parallelism tier of the program run on one
thread. Its output is passed through; the last line is the result JSON.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["onion", "sftree", "planted"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--out", default=".bench_out", help="directory for run records")
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        timeout=BUILD_TIMEOUT_S,
        check=False,
    )
    if build.returncode != 0:
        sys.exit(f"dgobench: build failed with code {build.returncode}")

    command = [
        os.path.join(target, "release", "dgobench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", args.out,
    ]
    # glibc's allocator, left to its defaults, returns freed blocks to the
    # kernel depending on the history of earlier allocations, so the same call
    # pays a varying number of page faults. Serving every block from the heap
    # and never trimming it makes each call reuse memory the same way.
    env = dict(os.environ, DGO_JOBS="1",
               MALLOC_MMAP_MAX_="0", MALLOC_TRIM_THRESHOLD_=str(1 << 40))
    with subprocess.Popen(command, stdout=subprocess.PIPE, env=env) as run:
        try:
            output, _ = run.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            run.kill()
            run.wait()
            sys.exit(f"dgobench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(output.decode())
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
