#!/usr/bin/env python3
"""Build the perfbench driver from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload device --seed 1 --seconds 15 --trace 0

The Go build cache, the binary, and the spans and CPU profiles the driver
writes all stay under .bench_build/ in the current directory. The build
uses no network: the driver depends on the standard library and on the
repository module next to it. Exits non-zero, printing no result, when the
build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "bin", "perfbench")
    for d in (os.path.dirname(binary), env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
