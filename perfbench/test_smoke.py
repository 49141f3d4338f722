#!/usr/bin/env python3
"""Smoke test for the EnCore benchmark.

Run from the root of a checkout:

    python3 perfbench/test_smoke.py

Builds the benchmark, then runs every workload at tiny sizes (--smoke)
untraced and traced, and checks each result against BENCHMARK.json: the
output checks passed, the last line is the result object with exactly
the contract's keys, and it holds every metric of its mode, no other,
each with its unit and a finite value (non-zero for end-to-end ones).  Finally it checks that outside an EnCore
checkout the command exits non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(args, cwd=ROOT):
    return subprocess.run(SPEC["command"] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def check_result(workload, trace, proc):
    where = "%s --trace %d" % (workload, trace)
    assert proc.returncode == 0, "%s: exit %d\n%s%s" % (
        where, proc.returncode, proc.stdout[-2000:], proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], where
    assert result["correct"] is True, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int) and result["failed"] >= 0, where
    listed = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(listed), "%s: metrics %s, manifest %s" % (
        where, sorted(result["metrics"]), sorted(listed))
    for name, m in result["metrics"].items():
        assert name in listed, "%s: %s not in BENCHMARK.json" % (where, name)
        assert m["unit"] == listed[name], "%s: %s unit %s" % (where, name, m["unit"])
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (
            "%s: %s = %r" % (where, name, m["value"]))
    if not trace:
        for name, m in result["metrics"].items():
            assert m["value"] != 0, "%s: %s is 0" % (where, name)


def main():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            proc = run(["--workload", w["name"], "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--smoke"])
            check_result(w["name"], trace, proc)
            print("ok  %s --trace %d" % (w["name"], trace))
    # outside a checkout: no result, non-zero exit
    bare = os.path.join(ROOT, ".bench_tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        proc = run(["--workload", "learn-paper", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "bare directory: exit 0"
        assert '"correct"' not in proc.stdout, "bare directory printed a result"
        print("ok  bare directory exits %d without a result" % proc.returncode)
    finally:
        shutil.rmtree(os.path.join(ROOT, ".bench_tmp"), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
