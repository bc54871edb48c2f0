#!/usr/bin/env python3
"""Builds `pcmax` and the benchmark from source, then runs the benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`) and run
offline. Build output goes to standard error; standard output carries
only the benchmark's own lines, the last of which is its JSON result.
"""
import os
import subprocess
import sys


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "pcmax"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--pcmax", os.path.join(release, "pcmax")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
