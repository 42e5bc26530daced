#!/usr/bin/env python3
"""Builds and runs the engine's end-to-end benchmark (see README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first call configures and builds `perfbench` (and the `onesql_serve`
binary it drives) in an optimized build under the build directory; later
calls only let CMake check the build is current. The last line of standard
output is the run's result as one JSON object. The exit code is non-zero
when the build fails, an output check fails, or the sources are missing.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["nexmark-join", "nexmark-serve", "nexmark-recover", "keyed-agg-sharded"]
BUILD_TYPE = "Release"


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary paths."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for needed in ("CMakeLists.txt", os.path.join("src", "engine", "engine.h"),
                   os.path.join("src", "server", "serve_main.cc")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("engine sources not found (%s missing); run from the root of "
                 "a checkout of the repository" % needed)
    cmake_dir = os.path.join(build_dir, "cmake")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", here, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                fail("cmake configure failed; see " + log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        rc = subprocess.call(
            ["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs],
            stdout=log, stderr=subprocess.STDOUT)
        if rc != 0:
            fail("build failed; see " + log_path)
    server = os.path.join(cmake_dir, "onesql", "src", "server", "onesql_serve")
    bench = os.path.join(cmake_dir, "perfbench")
    for binary in (bench, server):
        if not os.access(binary, os.X_OK):
            fail("build produced no %s" % binary)
    return bench, server


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that every output check catches a "
                             "corrupted expected result")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if os.path.isabs(build_dir) or build_dir.startswith(".."):
        build_dir = ".bench_build"
    bench, server = build(build_dir)

    cmd = [bench, "--build-dir", build_dir, "--server-bin", server]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
