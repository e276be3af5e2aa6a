#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

The release build goes to $CARGO_TARGET_DIR (default `.bench_build`);
Cargo's output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Checkpoints are written under
`.bench_build/perfbench-tmp` and removed by the run that wrote them.
Exits non-zero without a result when the repository's crates are not
there to build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "crates", "bench", "Cargo.toml")):
        print("perfbench: run from the repository root; crates/ is missing",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"),
         "-p", "perfbench", "-p", "consensus-bench",
         "--bin", "perfbench", "--bin", "sweep-worker"],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        return build.returncode or 1
    release = os.path.join(target, "release")
    run = subprocess.run(
        [os.path.join(release, "perfbench"),
         "--repo", root,
         "--worker", os.path.join(release, "sweep-worker"),
         "--tmp", os.path.join(root, ".bench_build", "perfbench-tmp")]
        + sys.argv[1:],
        check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
