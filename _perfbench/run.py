#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 _perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

It builds the Go benchmark in _perfbench/ (a module of its own that uses
the repository's packages through a replace directive) into the build
directory, then runs it with the same arguments. Builds, the Go build cache
and every artifact stay inside the build directory: $CARGO_TARGET_DIR when
set, else .bench_build. The last line of standard output is the JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isfile(
        os.path.join(root, "_perfbench", "go.mod")
    ):
        print("run.py: run from the repository root (go.mod and _perfbench/go.mod not found)", file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        PPROF_TMPDIR=os.path.join(build, "tmp"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "_perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
