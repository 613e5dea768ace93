#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it with the given flags.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default .bench_build) and writes its own output to stderr, so the last
line of stdout is the benchmark's result. Exits non-zero, printing no
result, when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run([exe] + sys.argv[1:], env=env)
    return run.returncode if run.returncode > 0 else (0 if run.returncode == 0 else 1)


if __name__ == "__main__":
    sys.exit(main())
