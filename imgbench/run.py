#!/usr/bin/env python3
"""Builds the image-computation benchmark and runs one workload.

Usage, from the repository root:

    python3 imgbench/run.py --workload <image_table1|reach_fixpoint|serve_pool> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a cargo package of its own (imgbench/Cargo.toml) over the
repository's crates. It is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build), and the files a run writes go to
$CARGO_TARGET_DIR/imgbench. The last line of standard output is the
run's JSON result. A failed build exits with its code and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
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
        check=False,
    )
    if build.returncode != 0:
        print("imgbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "imgbench")
    scratch = os.path.join(target, "imgbench")
    run = subprocess.run([binary, *sys.argv[1:], "--scratch", scratch], env=env, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
