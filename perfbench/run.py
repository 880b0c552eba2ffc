#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that uses the
analyzer's packages from the enclosing repository. This script builds it
into .bench_build/ (with the Go build cache there too, so nothing is
written outside the checkout), then runs it with the same arguments. The
last line of standard output is the benchmark's JSON result. Without the
repository's sources the build fails and the script exits non-zero
without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Keep the toolchain's caches, temporary files, settings and
    # telemetry inside the checkout, and never reach for the network.
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=bench,
        env=env,
        stdout=sys.stderr,
        timeout=840,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # The benchmark reads the verdict corpus relative to the repository
    # root, so it runs from there.
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
