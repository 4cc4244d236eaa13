#!/usr/bin/env python3
"""Build and run the perfbench harness from the root of a source checkout.

    python3 perfbench/run.py --workload collective_sweep --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the library sources under src/ in Release mode. The build lives in
$CARGO_TARGET_DIR when set, else .bench_build/; later runs rebuild
incrementally. All build output goes to stderr, so the last line of standard
output is the harness's JSON result. Every argument is passed through to the
harness (see perfbench/README.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def cached_source_dir(cache):
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "minimpi", "runtime.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache) and cached_source_dir(cache) != HERE:
        os.remove(cache)  # configured from another checkout location
    if not os.path.isfile(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    binary = os.path.join(build_dir, "perfbench")
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(build_dir, "perfbench_out")]
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
