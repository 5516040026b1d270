#!/usr/bin/env python3
"""Builds and runs the lgen benchmark from a source checkout.

    python3 benchmark/run.py --workload compile|tune|serve --seed N \
        --seconds S --trace 0|1

Run it from the root of the repository. It builds the benchmark package
(benchmark/Cargo.toml) and the `lgend` daemon in release mode, offline,
into $CARGO_TARGET_DIR (default: .bench_build), then runs the benchmark
binary. Cargo's output goes to stderr; the benchmark's last stdout line is
its JSON result. Any build failure exits non-zero without a result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join(ROOT, "benchmark", "Cargo.toml")


def build(args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("run.py: run from the repository root (no Cargo.toml here)")
    build(["--manifest-path", MANIFEST])
    build(["--bin", "lgend"])
    exe = os.path.join(target, "release")
    cmd = [os.path.join(exe, "lgen-perfbench"), *sys.argv[1:],
           "--lgend", os.path.join(exe, "lgend"), "--out", ".bench_out"]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
