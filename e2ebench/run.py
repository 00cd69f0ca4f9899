#!/usr/bin/env python3
"""Build the simulator and run one workload of the end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload suite_sweep --seed 0 \
        --seconds 10 --trace 0

Builds e2ebench/ (a CMake project over ../src) into $CARGO_TARGET_DIR,
default .bench_build, then runs the e2ebench driver. Build output goes
to stderr; stdout carries the driver's context line and, as its last
line, the result JSON. With --trace 1 the span trace is written to
<build dir>/e2ebench-<workload>.trace.json (opens in ui.perfetto.dev).

The driver's scratch directory (the warm_resweep disk tier) lives in
the build directory and is removed on exit, on failure too. Exits
non-zero without printing a result if the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print("e2ebench/run.py:", *args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the driver (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources under", os.path.join(ROOT, "src"))
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "e2ebench"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr):
            log("build step failed:", " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--size", choices=["full", "tiny"],
                        default="full")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        return 1

    # SIGTERM unwinds through the finally blocks below, so the child is
    # stopped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work_dir = tempfile.mkdtemp(prefix="e2ebench-", dir=build_dir)
    child = None
    try:
        cmd = [os.path.join(build_dir, "e2ebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--size", args.size, "--work-dir", work_dir]
        if args.trace == "1":
            cmd += ["--trace-out", os.path.join(
                build_dir, "e2ebench-%s.trace.json" % args.workload)]
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("run exceeded %d s" % RUN_TIMEOUT_S)
            return 1
        if child.returncode != 0:
            log("driver exited with", child.returncode)
            return 1
        sys.stdout.write(out)
        return 0
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
