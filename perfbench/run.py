#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload snapshots --seed 1 --seconds 15 --trace 0

Run from the repository root.  The build goes to .bench_build/cmake (only
the szp libraries the benchmark links, Release), traces and scratch files to
.bench_build/out.  Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result.  See README.md beside this file.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
OUT_DIR = os.path.join(BUILD, "out")
BINARY = os.path.join(CMAKE_DIR, "szp_perfbench")


def build():
    """Configure (once) and build; returns False when either step fails."""
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", CMAKE_DIR, "--target", "szp_perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["snapshots", "paper_workflows", "oocore"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the self-test uses this)")
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # Scratch directories of runs that were killed before cleaning up.
    if os.path.isdir(OUT_DIR):
        for name in os.listdir(OUT_DIR):
            if name.startswith("tmp-"):
                shutil.rmtree(os.path.join(OUT_DIR, name), ignore_errors=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", OUT_DIR]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
