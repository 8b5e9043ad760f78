#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the lcert library and the benchmark program lcert_e2e (perfbench/e2e.cpp) in
Release from this checkout's sources, then runs one workload:

    python3 perfbench/run.py --workload tree-scale --seed 1 --seconds 20 --trace 0

Run from the root of the checkout. The build tree is .bench_build/perfbench
(reused between runs); traced runs write their Chrome trace and per-layer
table to .bench_out/. lcert_e2e's last stdout line is the result JSON:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Extra flags (--self-test, --out-dir DIR) pass through to lcert_e2e.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "lcert_e2e")


def build():
    """Configures (once) and builds; compiler output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no lcert sources under %s/src; run from a full checkout" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    os.makedirs(OUT_DIR, exist_ok=True)
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", OUT_DIR]
    # lcert_e2e's stdout (ending in the result line) passes straight through.
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
