#!/usr/bin/env python3
"""Build and run the mesh end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload kv-lru --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that uses the
repository's mesh package through a replace directive. It is built into
.bench_build/ at the repository root, with the Go build cache, module
cache, home and temporary directories there too, so nothing is written
outside the checkout. All arguments are passed to the benchmark binary; see main.go for them.
Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        HOME=home,
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    for d in ("home", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
