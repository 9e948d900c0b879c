#!/usr/bin/env python3
"""Build the release `cfinder` binary and the benchmark binary, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold_cli --seed 1 --seconds 20 --trace 0

Both builds go to `$CARGO_TARGET_DIR` (default `.bench_build`). Build
output goes to stderr; the benchmark's last stdout line is the result JSON.
"""
import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "cfinder"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    bench = os.path.join(target, "release", "cfinder-perfbench")
    cfinder = os.path.join(target, "release", "cfinder")
    return subprocess.run([bench, "--cfinder", cfinder] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
