#!/usr/bin/env python3
"""Builds `tamopt` and the load generator from source, then runs one
benchmark workload against a live `tamopt serve`.

Usage (from the repository root):

    python3 perfbench/run.py --workload <cold-scan|warm-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Build output goes to stderr; the last line of stdout is the result
object. Builds land in $CARGO_TARGET_DIR (default `.bench_build`).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args):
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: cargo build {' '.join(args)}")


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo workspace at the repository root; nothing to build")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    build(["-p", "tamopt", "--bin", "tamopt"])
    build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    # Flush the build's written artifacts now rather than during timing.
    os.sync()
    # The load generator and the daemon it starts share one CPU. On a
    # small virtual machine every hop of a request to an idle CPU waits
    # for that CPU to wake up, about a millisecond whose length varies
    # with the host's load; on one CPU the hops stay on a running CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    exe = os.path.join(target, "release")
    done = subprocess.run(
        [os.path.join(exe, "perfbench"), *sys.argv[1:], "--daemon", os.path.join(exe, "tamopt")],
        cwd=ROOT,
    )
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
