#!/usr/bin/env python3
"""Run one servebench workload from the root of a repository checkout.

    python3 servebench/run.py --workload fleet --seed 1 --seconds 10 --trace 0

Builds the release `dbcatcher` daemon and the `servebench` harness from
source (into $CARGO_TARGET_DIR, default `.bench_build`), runs the harness
against the daemon and passes its output through: a human-readable report
on stderr, and one JSON result object as the last line of stdout. Exits
non-zero, without a result, if the checkout cannot be built or the run
fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fleet", "wide")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("servebench: no Cargo.toml at %s; run from a repository checkout" % ROOT,
              file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "dbcatcher-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(ROOT, "servebench", "Cargo.toml")],
    )
    for build in builds:
        # Build output goes to stderr so stdout stays the result alone.
        if subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("servebench: build failed: %s" % " ".join(build), file=sys.stderr)
            return 2

    release = os.path.join(target, "release")
    harness = [
        os.path.join(release, "servebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--daemon", os.path.join(release, "dbcatcher"),
        "--work", os.path.join(ROOT, ".bench_work", args.workload),
    ]
    return subprocess.run(harness, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
