#!/usr/bin/env python3
"""Build the host benchmark (optimised) and run one workload.

Usage, from the repository root:
    python3 hostbench/run.py --workload decode_long --seed 1 \
        --seconds 30 --trace 0
    python3 hostbench/run.py --selftest

The build tree is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the working directory. Build output goes to stderr; the
benchmark's last stdout line is its JSON result. Exits non-zero
without a result when the library sources are missing or do not build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(tree):
    # Keep the compiler's temporary files inside the build tree.
    tmp = os.path.join(tree, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [
        ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", tree, "-j", "4",
         "--target", "hostbench", "hostbench_selftest"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("hostbench: build failed: " + " ".join(cmd))


def main():
    tree = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(tree)
    args = sys.argv[1:]
    if args == ["--selftest"]:
        binary, args = os.path.join(tree, "hostbench_selftest"), []
    else:
        binary = os.path.join(tree, "hostbench")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
