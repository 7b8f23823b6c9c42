#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from anywhere; the repository root is this file's parent directory:

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

The binary and the Go build cache live in <root>/.bench_build, so the
first run compiles everything (standard library included) and later runs
only relink when a source changed. Every argument is passed through to
the binary; see perfbench/main.go for the workloads and output format.
A failed build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)

    go = shutil.which("go") or "/usr/local/go/bin/go"
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
    })
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    os.execv(binary, [binary, "-root", root] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
