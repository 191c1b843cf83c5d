#!/usr/bin/env python3
"""Build and run the rrplace end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
library and the benchmark binary (perfbench/CMakeLists.txt) into
.bench_build/, or into $CARGO_TARGET_DIR when that is set; later calls only
rebuild what changed. Build output goes to stderr, so the last line of stdout is the
binary's JSON result. Exits non-zero, printing no result, when the build
or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def configured_for_this_checkout(directory):
    cache = os.path.join(directory, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == \
                    os.path.realpath(HERE)
    return False


def configure(directory):
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory, exist_ok=True)
    command = ["cmake", "-S", HERE, "-B", directory,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def build(directory):
    """Configure (once) and build the binary; returns its path or None."""
    fresh = not configured_for_this_checkout(directory)
    if fresh and not configure(directory):
        return None
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    command = ["cmake", "--build", directory, "--target", "rrbench", "-j", jobs]
    ok = subprocess.run(command, stdout=sys.stderr).returncode == 0
    if not ok and not fresh:
        # A build tree left broken by an interrupted run: start over once.
        ok = configure(directory) and \
            subprocess.run(command, stdout=sys.stderr).returncode == 0
    binary = os.path.join(directory, "rrbench")
    return binary if ok and os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(build_dir())
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the binary and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
