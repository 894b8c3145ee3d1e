#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload soak|ingest|analytics|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the unilog library from ../src together with the benchmark binary
(CMake, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs it. The binary's last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}; build output
and progress go to stderr. The exit code is the binary's: nonzero when the
build fails, when an argument is wrong, or when any output check fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no unilog sources next to perfbench/\n")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out_dir, "-j", jobs]]
    # A configured tree re-runs CMake itself when a CMakeLists.txt changes.
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def binary_id(path):
    digest = hashlib.sha1()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def main(argv):
    out_dir = build_dir()
    if not build(out_dir):
        return 2
    if argv == ["--self-test"]:
        return subprocess.run([os.path.join(out_dir, "perfbench_selftest")]).returncode
    binary = os.path.join(out_dir, "perfbench")
    # Digests of earlier runs of the same binary and seed; a differing rerun
    # fails (determinism gate).
    state = os.path.join(out_dir, "state", binary_id(binary))
    return subprocess.run([binary] + argv + ["--state-dir", state]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
