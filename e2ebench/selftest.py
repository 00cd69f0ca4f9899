#!/usr/bin/env python3
"""Tiny-size self-test of every workload in BENCHMARK.json.

Usage (from the repository root):

    python3 e2ebench/selftest.py

For each workload, runs e2ebench/run.py at --size tiny once untraced and
once traced, and checks that:

  - the last stdout line is one JSON object with exactly the keys
    correct, attempted, failed and metrics, with no failed op;
  - every metric BENCHMARK.json names for that mode (end_to_end
    untraced, per_layer traced) is printed exactly once, with its unit,
    as a finite number, and no other metric is printed;
  - the untraced and traced runs report the same output digest, and
    the traced run kept at least 95% of each op inside layer spans and
    wrote a loadable Chrome trace.

Finally, checks that run.py fails without printing a result in a
directory holding only BENCHMARK.json and e2ebench/. Exits non-zero on
the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1


def fail(msg):
    print("selftest: FAIL:", msg, file=sys.stderr)
    sys.exit(1)


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        fail("printed more than once: %s" % sorted(dup))
    return dict(pairs)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "e2ebench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def check_result(workload, trace, spec):
    p = run(workload, trace)
    if p.returncode != 0:
        fail("%s trace=%d exited %d:\n%s" % (workload, trace,
                                              p.returncode, p.stderr))
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    context = json.loads(lines[-2])["context"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or \
            result["attempted"] < 1:
        fail("%s trace=%d: correct=%s attempted=%s failed=%s\n%s" % (
            workload, trace, result["correct"], result["attempted"],
            result["failed"], p.stderr))
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        fail("%s trace=%d: metric set differs: missing %s, extra %s" % (
            workload, trace, sorted(set(names) - set(metrics)),
            sorted(set(metrics) - set(names))))
    for m in wanted:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail("%s: %s unit %s, want %s" % (workload, m["name"],
                                              got["unit"], m["unit"]))
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: %s is not a finite number" % (workload, m["name"]))
        if not trace and value <= 0:
            fail("%s: end-to-end %s is %s" % (workload, m["name"], value))
    return result, context


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        _, untraced = check_result(name, 0, spec)
        result, traced = check_result(name, 1, spec)
        if untraced["digest"] != traced["digest"]:
            fail("%s: untraced digest %s, traced %s" % (
                name, untraced["digest"], traced["digest"]))
        coverage = result["metrics"]["trace.min_op_coverage"]["value"]
        if coverage < 0.95:
            fail("%s: only %.3f of an op inside layer spans" % (name,
                                                                coverage))
        with open(traced["trace_out"]) as f:
            if not json.load(f)["traceEvents"]:
                fail("%s: empty span trace" % name)
        print("selftest: %s ok (digest %s)" % (name, traced["digest"]))

    # Without the simulator sources the benchmark must fail cleanly.
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="e2ebench-bare-", dir=build_dir)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"))
        p = run(spec["workloads"][0]["name"], 0, cwd=bare)
        if p.returncode == 0 or p.stdout.strip():
            fail("bare directory: exit %d, stdout %r" % (p.returncode,
                                                         p.stdout))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: bare directory fails cleanly")
    print("selftest: ok")


if __name__ == "__main__":
    main()
