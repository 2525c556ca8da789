#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <svm-large|mpc-fleet|serve-mpc> \\
        --seed <n> --seconds <s> --trace <0|1>

Cargo's output goes to standard error, so the last line of standard output
is the benchmark's JSON result. The build uses CARGO_TARGET_DIR when it is
set and `.bench_build` otherwise.
"""

import os
import subprocess
import sys

# A run must finish within this many seconds once built.
RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.getcwd()
    manifest = os.path.join("perfbench", "Cargo.toml")
    # The benchmark links the repository's crates by path; without them
    # there is nothing to measure.
    for crate in ("core", "graph", "mpc", "prox", "serve", "svm"):
        if not os.path.isfile(os.path.join(root, "crates", crate, "Cargo.toml")):
            print(f"perfbench: crates/{crate} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", manifest],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary, *sys.argv[1:]], env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
