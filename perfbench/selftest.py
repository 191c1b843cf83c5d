#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds 2]

Run from the repository root. For every workload declared in
BENCHMARK.json it checks that:
  - an untraced run prints every end-to-end metric once, with its declared
    unit, and a traced run every per-layer metric; the result line has
    exactly the keys correct/attempted/failed/metrics and correct is true;
  - end-to-end values are non-zero; failed_ops, mismatches and
    defrag.deadline_expiries are 0; table1_offline gains utilization;
  - two runs of one seed print identical quality and exact counts (the
    "# exact:" line), and a second seed's counts are shown beside them;
  - a traced service run's time account holds: the apply time its serial
    replay measures stays within the stated tolerance of the service's own
    (the "# account:" line ends in "ok");
  - run.py fails without printing a result where only BENCHMARK.json and
    the benchmark's own files exist (no library sources to build).
Exits non-zero on the first violated check.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("SELFTEST FAILED: " + message)
    sys.exit(1)


def run(workload, seed, seconds, trace, cwd=ROOT, env=None):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          env=env, timeout=900)
    return done.returncode, done.stdout.splitlines(), done.stderr


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        fail("a key is printed twice: %s" % sorted(k for k in keys
                                                   if keys.count(k) > 1))
    return dict(pairs)


def result(workload, seed, seconds, trace):
    code, lines, err = run(workload, seed, seconds, trace)
    if code != 0 or not lines:
        fail("%s trace=%d exited %d:\n%s" % (workload, trace, code, err[-2000:]))
    doc = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(doc)))
    if doc["correct"] is not True or doc["failed"] != 0 or doc["attempted"] < 1:
        fail("%s trace=%d: correct=%s attempted=%s failed=%s\n%s" % (
            workload, trace, doc["correct"], doc["attempted"], doc["failed"],
            err[-2000:]))
    exact = [line for line in lines if line.startswith("# exact:")]
    account = [line for line in lines if line.startswith("# account:")]
    if account and account[0].endswith("EXCEEDED"):
        fail("%s: traced times do not account for the run: %s" % (
            workload, account[0]))
    for line in account:
        print("  " + line)
    return doc["metrics"], exact


def check_metrics(workload, metrics, declared, nonzero):
    if set(metrics) != {m["name"] for m in declared}:
        fail("%s: printed metrics differ from the declared ones: %s" % (
            workload, sorted(set(metrics) ^ {m["name"] for m in declared})))
    for m in declared:
        got = metrics[m["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            fail("%s: %s printed as %s, declared unit %s" % (
                workload, m["name"], got, m["unit"]))
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            fail("%s: %s is not a finite number" % (workload, m["name"]))
        if nonzero and got["value"] == 0:
            fail("%s: end-to-end metric %s is 0" % (workload, m["name"]))


def check_bare_checkout(spec):
    """run.py must fail cleanly where the library sources are missing."""
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    code, lines, _ = run(spec["workloads"][0]["name"], 1, 1, 0, cwd=bare,
                         env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        fail("run.py succeeded without library sources")
    print("bare checkout: run.py exits %d without a result" % code)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for workload in (w["name"] for w in spec["workloads"]):
        metrics, exact = result(workload, 1, args.seconds, 0)
        check_metrics(workload, metrics, spec["end_to_end"], nonzero=True)
        layers, _ = result(workload, 1, args.seconds, 1)
        check_metrics(workload, layers, spec["per_layer"], nonzero=False)
        for name in ("failed_ops", "mismatches", "defrag.deadline_expiries"):
            if layers[name]["value"] != 0:
                fail("%s: %s = %s" % (workload, name, layers[name]["value"]))
        if workload == "table1_offline" and \
                layers["quality.util_gain_pts"]["value"] <= 0:
            fail("table1_offline: design alternatives gained no utilization")
        _, again = result(workload, 1, args.seconds, 0)
        if not exact or exact != again:
            fail("%s: exact counts differ between runs of one seed:\n%s\n%s"
                 % (workload, exact, again))
        _, other = result(workload, 2, args.seconds, 0)
        print("%s: ok\n  seed 1 (twice): %s\n  seed 2:         %s" % (
            workload, exact[0][len("# exact: "):],
            other[0][len("# exact: "):] if other else "-"))

    check_bare_checkout(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
