#!/usr/bin/env python3
"""Build the `gaps` binary and the perfbench harness, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Every flag is passed on to the harness (see perfbench/README.md). Build
output goes to stderr; the harness prints the result object as the last
line of stdout. Builds land in $CARGO_TARGET_DIR (default: target/), so
the binary under test is the same release `gaps` that `cargo build
--release` produces.
"""

import os
import subprocess
import sys


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def capture(cmd, cwd):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    for needed in ("Cargo.toml", "crates", "src"):
        if not os.path.exists(os.path.join(root, needed)):
            return fail(f"{needed} not found: run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR") or "target"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--bin", "gaps"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(bench, "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            return fail(f"build failed: {' '.join(cmd)}")
    harness = [
        os.path.join(target, "release", "gaps-perfbench"),
        "--gaps", os.path.join(target, "release", "gaps"),
        "--work-dir", os.path.join(target, "perfbench"),
        "--git-rev", capture(["git", "rev-parse", "HEAD"], root),
        "--rustc", capture(["rustc", "-V"], root),
    ] + sys.argv[1:]
    return subprocess.run(harness, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
