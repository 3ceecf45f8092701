#!/usr/bin/env python3
"""Build the mdbench package from source and run one benchmark workload.

Usage (from the repository root):

    python3 mdbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The package is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build` in the working directory);
build output goes to stderr. The benchmark's own stdout, whose last line
is the JSON result, is passed through unchanged, as is its exit code.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("mdbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "mdbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
